package sim_test

import (
	"strings"
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
)

func sampledRun(t *testing.T, interval uint64) *sim.Result {
	t.Helper()
	b := asm.NewBuilder("work")
	b.MovI(1, 2000)
	b.Label("loop")
	b.AddI(2, 2, 3)
	b.AddI(1, 1, -1)
	b.Bnez(1, "loop")
	b.Halt()
	cfg := design.ExistingConfig().SimConfig()
	cfg.SampleInterval = interval
	res, err := sim.Run(cfg, mem.New(), []sim.Thread{{Prog: b.MustProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSampling(t *testing.T) {
	res := sampledRun(t, 100)
	if len(res.Samples) < 10 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	var total uint64
	for _, s := range res.Samples {
		if len(s.Issued) != 1 {
			t.Fatalf("sample has %d cores", len(s.Issued))
		}
		total += s.Issued[0]
	}
	// Samples cover most of the run's instructions (the tail after the
	// last interval is not sampled).
	if total < res.Cores[0].Issued*8/10 {
		t.Errorf("samples cover %d of %d instructions", total, res.Cores[0].Issued)
	}
	if ipc := res.Samples[2].IPC(0, 100); ipc <= 0 || ipc > 6 {
		t.Errorf("IPC %v out of range", ipc)
	}
}

func TestSamplingOff(t *testing.T) {
	res := sampledRun(t, 0)
	if len(res.Samples) != 0 {
		t.Error("samples collected with sampling off")
	}
	if res.TraceReport(0) != "" || res.CSV(0) != "" {
		t.Error("reports should be empty with sampling off")
	}
}

func TestTraceReportAndCSV(t *testing.T) {
	res := sampledRun(t, 100)
	rep := res.TraceReport(100)
	if !strings.Contains(rep, "core 0 IPC") || !strings.Contains(rep, "bus grants") {
		t.Errorf("report missing sections:\n%s", rep)
	}
	csv := res.CSV(100)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "cycle,core0_ipc,bus_grants" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != len(res.Samples)+1 {
		t.Errorf("csv rows %d, want %d", len(lines)-1, len(res.Samples)+1)
	}
}

func TestSparkline(t *testing.T) {
	s := sim.Sparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Fatalf("length %d", len([]rune(s)))
	}
	r := []rune(s)
	if r[0] >= r[1] || r[1] >= r[3] {
		t.Errorf("sparkline not monotone: %q", s)
	}
	if flat := sim.Sparkline([]float64{0, 0}); []rune(flat)[0] != []rune(flat)[1] {
		t.Errorf("flat series not flat: %q", flat)
	}
}
