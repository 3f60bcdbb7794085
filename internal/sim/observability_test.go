package sim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hfstream/internal/bus"
	"hfstream/internal/design"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
	"hfstream/trace"
)

// TestStallAttributionInvariant checks the acceptance identity on every
// standard design point: per core, the per-region stall view charges as
// many cycles as the per-reason one. That stall cycles are total cycles
// minus issue cycles holds by construction: Counters.Cycles() is their sum.
func TestStallAttributionInvariant(t *testing.T) {
	for _, cfg := range design.StandardConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			res := runPipe(t, cfg, 300)
			for i := range res.Cores {
				c := &res.Cores[i]
				stall := c.Stalls.Total()
				if got := c.StallRegions.Total(); got != stall {
					t.Errorf("core %d: stall regions total %d != stall total %d", i, got, stall)
				}
			}
		})
	}
}

// Breakdowns, the copy the frozen benchmark reads, is each core's
// Cores[i].Breakdown(), and no core counts a cycle past the run's end, on
// a dual-core cell and a six-stage chain.
func TestCoresAgreeWithBreakdowns(t *testing.T) {
	for _, cell := range []struct {
		bench  string
		design design.Config
	}{
		{"wc", design.SyncOptiConfig()},
		{"equake", design.SyncOptiSCQ64Config().WithCores(6)},
	} {
		cfg, base, threads := buildCell(t, cell.bench, cell.design)
		res, err := sim.Run(cfg, base.Fork(), threads)
		if err != nil {
			t.Fatalf("%s/%s: %v", cell.bench, cell.design.Name(), err)
		}
		if len(res.Cores) != len(threads) || len(res.Breakdowns) != len(threads) {
			t.Fatalf("%s/%s: %d cores, %d breakdowns for %d threads", cell.bench, cell.design.Name(),
				len(res.Cores), len(res.Breakdowns), len(threads))
		}
		for i := range res.Cores {
			c := &res.Cores[i]
			if bd := c.Breakdown(); res.Breakdowns[i] != bd {
				t.Errorf("%s/%s core %d: Breakdowns %v, Cores' Breakdown() %v",
					cell.bench, cell.design.Name(), i, res.Breakdowns[i], bd)
			}
			if n := c.Cycles(); n == 0 || n > res.Cycles {
				t.Errorf("%s/%s core %d: %d active cycles of %d", cell.bench, cell.design.Name(), i, n, res.Cycles)
			}
		}
	}
}

func runTraced(t *testing.T, cfg design.Config, buf *trace.Buffer) {
	t.Helper()
	image := mem.New()
	simCfg := cfg.SimConfig()
	simCfg.Trace = buf
	if _, err := sim.Run(simCfg, image, []sim.Thread{
		{Prog: producerProg(60)}, {Prog: consumerProg()},
	}); err != nil {
		t.Fatalf("%s: %v", cfg.Name(), err)
	}
}

func TestTraceRecordsRun(t *testing.T) {
	buf := trace.NewBuffer(1 << 14)
	runTraced(t, design.HeavyWTConfig(), buf)
	if buf.Len() == 0 {
		t.Fatal("trace buffer is empty")
	}
	kinds := map[trace.Kind]int{}
	for _, e := range buf.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindIssue, trace.KindQueueOp, trace.KindRetire} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}

	var data bytes.Buffer
	if err := trace.WriteChrome(&data, buf.Events(), buf.Dropped()); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := trace.ReadChrome(data.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not round-trip: %v", err)
	}
	if len(parsed) != buf.Len() {
		t.Errorf("round trip produced %d events, want %d", len(parsed), buf.Len())
	}
}

// sim.Run resolves one trace name per bus kind up to bus.Probe, which must
// therefore be the last kind.
func TestBusProbeIsLastKind(t *testing.T) {
	if s := (bus.Probe + 1).String(); !strings.HasPrefix(s, "Kind(") {
		t.Errorf("bus kind after Probe is %q; sim.Run's trace hook has no name for it", s)
	}
}

func TestMetricsJSONShape(t *testing.T) {
	res := runPipe(t, design.SyncOptiConfig(), 200)
	buf, err := res.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Cycles uint64 `json:"cycles"`
		Cores  []struct {
			Cycles      uint64            `json:"cycles"`
			IssueCycles uint64            `json:"issue_cycles"`
			StallCycles uint64            `json:"stall_cycles"`
			Stalls      map[string]uint64 `json:"stalls"`
		} `json:"cores"`
		Bus struct {
			Grants uint64 `json:"grants"`
		} `json:"bus"`
		QueueOccupancy []struct {
			Range string `json:"range"`
			Count uint64 `json:"count"`
		} `json:"queue_occupancy"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("metrics are not valid JSON: %v", err)
	}
	if m.Cycles != res.Cycles {
		t.Errorf("metrics cycles = %d, want %d", m.Cycles, res.Cycles)
	}
	if len(m.Cores) != 2 {
		t.Fatalf("metrics cores = %d, want 2", len(m.Cores))
	}
	for i, c := range m.Cores {
		if c.IssueCycles+c.StallCycles != c.Cycles {
			t.Errorf("core %d: issue %d + stall %d != cycles %d",
				i, c.IssueCycles, c.StallCycles, c.Cycles)
		}
		var sum uint64
		for _, n := range c.Stalls {
			sum += n
		}
		if sum != c.StallCycles {
			t.Errorf("core %d: stall map sums to %d, want %d", i, sum, c.StallCycles)
		}
	}
	if m.Bus.Grants == 0 {
		t.Error("software-queue run recorded no bus grants")
	}
	if len(m.QueueOccupancy) == 0 {
		t.Error("no queue occupancy histogram")
	}

	// Determinism: a second identical run must serialize byte-identically —
	// this is what lets CI diff golden snapshots.
	buf2, err := runPipe(t, design.SyncOptiConfig(), 200).MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Error("metrics JSON is not deterministic across identical runs")
	}
}

func TestMetricsSAOccupancy(t *testing.T) {
	res := runPipe(t, design.HeavyWTConfig(), 200)
	m := res.Metrics()
	if len(m.SAOccupancy) == 0 {
		t.Error("HEAVYWT metrics missing synchronization-array occupancy")
	}
	if m.Cores[0].Produces == 0 || m.Cores[1].Consumes == 0 {
		t.Errorf("queue-op counts missing: produces=%d consumes=%d",
			m.Cores[0].Produces, m.Cores[1].Consumes)
	}
}
