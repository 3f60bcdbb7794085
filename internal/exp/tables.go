package exp

import (
	"fmt"
	"strconv"

	"hfstream/internal/core"
	"hfstream/internal/design"
	"hfstream/internal/isa"
	"hfstream/internal/memsys"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// Table1 reproduces the paper's benchmark loop information table.
func Table1() string {
	t := stats.NewTable("Table 1: Benchmark Loop Information",
		"Benchmark", "Suite", "Function", "% Exec. Time", "Iterations (sim)")
	for _, name := range workloads.Names() {
		b, _ := workloads.Shared(name) // a catalog name cannot fail
		t.AddRowf(b.Name, b.Suite, b.Function, fmt.Sprintf("%d%%", b.ExecPct), b.Iterations)
	}
	return t.String()
}

// Table2 reproduces the baseline simulator configuration table.
func Table2() string {
	p := memsys.DefaultParams(design.ExistingConfig().Layout())
	c := design.ExistingConfig()
	cp := core.DefaultParams()
	t := stats.NewTable("Table 2: Baseline Simulator", "Component", "Configuration")
	t.AddRow("Core", fmt.Sprintf("%d-issue; %d ALU, %d Memory, %d FP, %d Branch", core.IssueWidth,
		cp.FUs[isa.FUALU], cp.FUs[isa.FUMem], cp.FUs[isa.FUFP], cp.FUs[isa.FUBranch]))
	t.AddRow("L1D Cache", fmt.Sprintf("%d cycle, %d KB, %d-way, %dB lines, write-through",
		p.L1.Latency, p.L1.SizeBytes>>10, p.L1.Ways, p.L1.LineBytes))
	t.AddRow("L2 Cache", fmt.Sprintf("%d cycles, %d KB, %d-way, %dB lines, write-back",
		p.L2.Latency, p.L2.SizeBytes>>10, p.L2.Ways, p.L2.LineBytes))
	t.AddRow("Max Outstanding Loads", strconv.Itoa(cp.MaxOutstandingLoads))
	t.AddRow("OzQ (L2 transaction queue)", fmt.Sprintf("%d entries, %d ports", p.OzQSize, p.L2Ports))
	t.AddRow("Shared L3 Cache", fmt.Sprintf("%d cycles, %.1f MB, %d-way, %dB lines, write-back",
		p.L3.Latency, float64(p.L3.SizeBytes)/(1<<20), p.L3.Ways, p.L3.LineBytes))
	t.AddRow("Main Memory latency", fmt.Sprintf("%d cycles", memsys.MemLat))
	t.AddRow("Coherence", "Snoop-based, write-invalidate protocol")
	t.AddRow("L3 Bus", fmt.Sprintf("%d-byte, %d-cycle, 3-stage pipelined, split-transaction, round-robin arbitration",
		p.Bus.WidthBytes, p.Bus.CPB))
	t.AddRow("Queues", fmt.Sprintf("%d queues, depth %d, QLU %d", design.NumQueues, c.QueueDepth, c.QLU))
	return t.String()
}
