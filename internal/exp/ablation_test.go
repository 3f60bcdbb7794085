package exp

import (
	"context"
	"testing"
)

func TestAblationQLUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationQLU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The paper ran QLU 1 and found QLU 8 "uniformly better".
	for _, row := range r.Rows {
		if row.Values[1] <= 1.0 {
			t.Errorf("%s: QLU1 (%.3f) should be slower than QLU8", row.Benchmark, row.Values[1])
		}
	}
	if g := r.Value("QLU1"); g < 1.3 {
		t.Errorf("QLU1 geomean %.3f, expected a substantial slowdown", g)
	}
}

func TestAblationCentralizedStoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationCentralizedStore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c4 := r.Value("central (4cyc)")
	c8 := r.Value("central (8cyc)")
	if !(1.0 < c4 && c4 < c8) {
		t.Errorf("centralized store should monotonically hurt: 1.0 < %.3f < %.3f", c4, c8)
	}
}

func TestAblationRegMappedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationRegMapped(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Folding queue ops into instructions can only help (§3.1.3 predicts
	// gains for resource-bound loops; others break even).
	if g := r.Value("REGMAPPED"); g > 1.001 {
		t.Errorf("REGMAPPED geomean %.4f should not be slower than HEAVYWT", g)
	}
	for _, row := range r.Rows {
		if row.Values[1] > 1.01 {
			t.Errorf("%s: REGMAPPED %.3f slower than HEAVYWT", row.Benchmark, row.Values[1])
		}
	}
}

func TestAblationStreamCacheSizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationStreamCacheSize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	none := r.Value("none")
	paper := r.Value("64 (paper)")
	big := r.Value("128")
	if none != 1.0 {
		t.Errorf("baseline should be 1.0, got %v", none)
	}
	if paper >= 1.0 {
		t.Errorf("64-entry stream cache should help: %.3f", paper)
	}
	// Diminishing returns: doubling past the paper's choice buys little.
	if big < paper-0.03 {
		t.Errorf("128 entries (%.3f) should not be much better than 64 (%.3f)", big, paper)
	}
}

func TestAblationBusPipeliningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationBusPipelining(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cpb4 := r.Value("pipelined cpb4")
	unpiped := r.Value("unpipelined cpb4")
	if !(1.0 <= cpb4 && cpb4 < unpiped) {
		t.Errorf("unpipelined bus (%.3f) should be worse than pipelined (%.3f)", unpiped, cpb4)
	}
}

func TestAblationNetQueueShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationNetQueue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// §3.5.3: nearby cores give bursty pipelines insufficient decoupling;
	// the penalty must decay with separation. bzip2 is the bursty case.
	var bz []float64
	for _, row := range r.Rows {
		if row.Benchmark == "bzip2" {
			bz = row.Values
		}
	}
	if len(bz) != 5 {
		t.Fatal("bzip2 row missing")
	}
	oneHop, eightHops := bz[1], bz[4]
	if oneHop <= 1.005 {
		t.Errorf("bzip2 at 1 hop = %.3f, expected a visible decoupling penalty", oneHop)
	}
	if eightHops >= oneHop {
		t.Errorf("penalty should decay with separation: 1hop=%.3f 8hops=%.3f", oneHop, eightHops)
	}
	// Steady streams are insensitive: geomean near 1.
	if g := r.Geomean[1]; g > 1.05 {
		t.Errorf("1-hop geomean %.3f, steady streams should be largely unaffected", g)
	}
}

func TestAblationStagesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationStages(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, row := range r.Rows {
		if !row.Cells[0].Supported || !row.Cells[1].Supported {
			t.Errorf("%s: 1/2-stage must always be supported", row.Benchmark)
			continue
		}
		if !row.Cells[2].Supported {
			continue
		}
		// A deeper pipeline must never be drastically worse than two
		// stages, and should help at least some compute-rich kernels.
		if float64(row.Cells[2].Cycles) > float64(row.Cells[1].Cycles)*1.2 {
			t.Errorf("%s: 3 stages (%d) much worse than 2 (%d)",
				row.Benchmark, row.Cells[2].Cycles, row.Cells[1].Cycles)
		}
		if float64(row.Cells[2].Cycles) < float64(row.Cells[1].Cycles)*0.9 {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("only %d kernels improved with a third stage", improved)
	}
}

// TestAblationStagesRunsOnTheRunner: the stage-depth study is a grid like
// any other, so every simulation it makes goes through Runner.Run — fanned
// out under -j, reported under -progress, and in reach of the warn and
// diagnosis hooks (TestDiagnosisHookReceivesForensics). It used to call
// plan/execute inline and report nothing.
func TestAblationStagesRunsOnTheRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	var dones []int // Progress calls are serialized by the runner
	total := 0
	SetProgress(func(done, n int, _ JobResult) { dones, total = append(dones, done), n })
	defer SetProgress(nil)
	r, err := AblationStages(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, row := range r.Rows {
		want++ // the benchmark's single-core baseline
		for _, c := range row.Cells[1:] {
			if c.Supported {
				want++
			}
		}
	}
	if len(dones) != want || total != want {
		t.Fatalf("progress reported %d of %d jobs for %d simulations", len(dones), total, want)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress call %d reported done = %d", i+1, d)
		}
	}
}

func TestAblationProbeTimeoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	r, err := AblationProbeTimeout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Longer timeouts delay stream-termination flushes; they must never
	// help and eventually hurt the nested benchmark.
	def := r.Value("50 (default)")
	long := r.Value("400")
	if long < def-0.01 {
		t.Errorf("longer probe timeout should not help: 400=%.3f vs 50=%.3f", long, def)
	}
}
