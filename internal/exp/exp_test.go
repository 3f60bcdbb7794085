package exp

import (
	"context"
	"strings"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/mem"
	"hfstream/internal/workloads"
)

func TestTable1Contents(t *testing.T) {
	s := Table1()
	for _, b := range workloads.All() {
		if !strings.Contains(s, b.Name) || !strings.Contains(s, b.Function) {
			t.Errorf("Table 1 missing %s", b.Name)
		}
	}
}

func TestTable2Contents(t *testing.T) {
	s := Table2()
	for _, want := range []string{"6-issue", "16 KB", "256 KB", "1.5 MB", "141 cycles",
		"Snoop-based", "16-byte", "write-through", "write-back"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3()
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	a, b, c := r.Rows[0], r.Rows[1], r.Rows[2]
	// Pipelining with a queue multiplies throughput ~4x; halving COMM-OP
	// doubles it again (paper: 2 -> 7 -> 14 iterations).
	if !(a.Iterations < b.Iterations && b.Iterations < c.Iterations) {
		t.Errorf("throughput not increasing: %v %v %v", a.Iterations, b.Iterations, c.Iterations)
	}
	if ratio := b.Iterations / a.Iterations; ratio < 3 || ratio > 5 {
		t.Errorf("queue gain %v, want ~4x (paper: 3.5x)", ratio)
	}
	if ratio := c.Iterations / b.Iterations; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("COMM-OP halving gain %v, want ~2x", ratio)
	}
	// More buffers are needed at higher throughput (paper: 4 -> 6).
	if c.MinBuffers <= b.MinBuffers {
		t.Errorf("buffer requirement should grow: %d vs %d", b.MinBuffers, c.MinBuffers)
	}
	if !strings.Contains(r.Table(), "single buffer") {
		t.Error("table rendering broken")
	}
}

func TestCheckOutputDetectsCorruption(t *testing.T) {
	b, err := workloads.ByName("epicdec")
	if err != nil {
		t.Fatal(err)
	}
	img := mem.New()
	b.Setup(img)
	// Unrun image: outputs are zero, oracle's are not.
	if err := CheckOutput(b, img); err == nil {
		t.Fatal("corrupted (empty) output accepted")
	}
	// A verified run passes.
	if _, err := RunBenchmarkOpts(context.Background(), b, design.HeavyWTConfig(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedIsDeterministic(t *testing.T) {
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	im1, err := Expected(b)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := Expected(b)
	if err != nil {
		t.Fatal(err)
	}
	for a := b.Out.Base; a < b.Out.End(); a += 8 {
		if im1.Read8(a) != im2.Read8(a) {
			t.Fatalf("oracle nondeterministic at %#x", a)
		}
	}
}

func TestRunBenchmarkRejectsBadDesignCombination(t *testing.T) {
	// Software lowering requires flag space; the dense Q64 layout cannot
	// host software queues.
	cfg := design.MemOptiConfig()
	cfg.QueueDepth = 64
	cfg.QLU = 16
	b, err := workloads.ByName("epicdec")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBenchmarkOpts(context.Background(), b, cfg, RunOpts{}); err == nil {
		t.Fatal("flagless software-queue layout accepted")
	}
}

func TestBreakdownFigureNormalization(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark set")
	}
	fig, err := breakdownFigure(context.Background(), "test", []design.Config{design.HeavyWTConfig(), design.SyncOptiConfig()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		if row.Bars[0].Total != 1.0 {
			t.Errorf("%s: baseline bar = %v", row.Benchmark, row.Bars[0].Total)
		}
		for _, bar := range row.Bars {
			sum := 0.0
			for _, p := range bar.Parts {
				sum += p
			}
			if diff := sum - bar.Total; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s/%s: parts sum %v != total %v", row.Benchmark, bar.Design, sum, bar.Total)
			}
		}
	}
	if fig.NormTotal("HEAVYWT") != 1.0 {
		t.Error("geomean baseline != 1.0")
	}
	if fig.NormTotal("nope") != 0 {
		t.Error("unknown design should return 0")
	}
}
