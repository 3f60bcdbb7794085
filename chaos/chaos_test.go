package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"hfstream"
)

// corpus mirrors testdata/seeds.json, the seed set CI replays.
type corpus struct {
	Seeds        []int64 `json:"seeds"`
	PlansPerSeed int     `json:"plans_per_seed"`
	// MPMCSeeds (all >= mpmcSeedBase) generate shared-queue MPMC
	// topologies and sweep only the ticket-discipline designs.
	MPMCSeeds []int64 `json:"mpmc_seeds"`
}

func loadCorpus(t *testing.T) corpus {
	t.Helper()
	raw, err := os.ReadFile("testdata/seeds.json")
	if err != nil {
		t.Fatal(err)
	}
	var c corpus
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Seeds) == 0 || c.PlansPerSeed == 0 || len(c.MPMCSeeds) == 0 {
		t.Fatal("empty corpus")
	}
	for _, s := range c.MPMCSeeds {
		if s < mpmcSeedBase {
			t.Fatalf("mpmc_seeds entry %d below the MPMC seed base %d", s, mpmcSeedBase)
		}
	}
	return c
}

// TestGeneratorDeterministic: same seed, same workload — the property
// every replay command relies on.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, b := generate(seed), generate(seed)
		if a.producer != b.producer || a.consumer != b.consumer {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
		if len(a.init) != len(b.init) {
			t.Fatalf("seed %d: init image differs", seed)
		}
		for _, c := range a.counts {
			if c < 144 {
				t.Errorf("seed %d: count %d below the starvation floor", seed, c)
			}
		}
	}
}

// TestGeneratedWorkloadsCompile: every corpus seed compiles and has a
// working functional oracle.
func TestGeneratedWorkloadsCompile(t *testing.T) {
	c := loadCorpus(t)
	for _, seed := range append(append([]int64{}, c.Seeds...), c.MPMCSeeds...) {
		if _, err := prepare(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPlanDerivationAlternates: even plan indices are delay-class, odd
// ones loss-class, and all validate.
func TestPlanDerivationAlternates(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for i := 0; i < 6; i++ {
			p := PlanForIndex(seed, i)
			if err := p.Validate(); err != nil {
				t.Errorf("seed %d plan %d: %v", seed, i, err)
			}
			if want := i%2 == 1; p.HasLoss() != want {
				t.Errorf("seed %d plan %d: HasLoss = %v, want %v", seed, i, p.HasLoss(), want)
			}
		}
	}
}

// TestChaosSweepCorpus runs the CI smoke corpus: every (seed, design,
// plan) combination must uphold the robustness contract. In -short mode
// only the first two seeds run.
func TestChaosSweepCorpus(t *testing.T) {
	c := loadCorpus(t)
	seeds, mpmcSeeds := c.Seeds, c.MPMCSeeds
	if testing.Short() {
		if len(seeds) > 2 {
			seeds = seeds[:2]
		}
		if len(mpmcSeeds) > 1 {
			mpmcSeeds = mpmcSeeds[:1]
		}
	}
	rep, err := Sweep(context.Background(), Config{
		Seeds:        append(append([]int64{}, seeds...), mpmcSeeds...),
		PlansPerSeed: c.PlansPerSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// MPMC seeds sweep only the designs that accept shared-queue
	// topologies (the rest are skipped, not failed).
	accepting := 0
	for _, d := range hfstream.Designs() {
		if d.SupportsMPMC() {
			accepting++
		}
	}
	wantRuns := (len(seeds)*len(hfstream.Designs()) + len(mpmcSeeds)*accepting) * (1 + c.PlansPerSeed)
	if rep.Runs != wantRuns {
		t.Errorf("runs = %d, want %d", rep.Runs, wantRuns)
	}
	if rep.Failures > 0 {
		t.Fatalf("chaos contract violated:\n%s", rep.String())
	}
	// The sweep is only meaningful if loss plans actually sever links on
	// the hardware-queue designs.
	byClass := map[string]int{}
	for _, o := range rep.Outcomes {
		byClass[o.Class]++
	}
	if byClass[ClassLossDetected] == 0 {
		t.Error("no loss plan was ever detected; the sweep exercises nothing")
	}
	if byClass[ClassDelayOK] == 0 {
		t.Error("no delay plan completed; the sweep exercises nothing")
	}
	t.Logf("\n%s", rep.String())
}

// TestReplaySingleCase: the replay path (one seed, one design, one plan)
// reproduces the sweep's classification for a loss case.
func TestReplaySingleCase(t *testing.T) {
	d, err := hfstream.DesignByName("SYNCOPTI")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(context.Background(), Config{
		Seeds:        []int64{1},
		PlansPerSeed: 2, // plan 0 delay, plan 1 loss
		Designs:      []hfstream.Design{d},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.Class == ClassFail {
			t.Errorf("replay run failed: %s", o.Detail)
		}
		if o.PlanIndex == 1 {
			if p := PlanForIndex(1, 1); !p.HasLoss() {
				t.Fatal("plan 1 should be loss-class")
			}
			if o.Class != ClassLossDetected && o.Class != ClassLossBenign {
				t.Errorf("loss plan on SYNCOPTI classified %q, want a loss class", o.Class)
			}
		}
	}
}

// TestRunDriver: the shared driver returns outcomes in case order
// whatever order a pool finishes them in, turns a panic and an overrun
// into failures of that case alone, and reports progress once per
// outcome.
func TestRunDriver(t *testing.T) {
	ok := func(ctx context.Context, o *Outcome) { o.Class = ClassBaselineOK }
	cases := []Case{
		{Outcome{Seed: 0}, func(ctx context.Context, o *Outcome) { time.Sleep(30 * time.Millisecond); ok(ctx, o) }},
		{Outcome{Seed: 1}, func(ctx context.Context, o *Outcome) { panic("boom") }},
		{Outcome{Seed: 2}, func(ctx context.Context, o *Outcome) { <-ctx.Done(); o.Detail = "gave up" }},
		{Outcome{Seed: 3}, ok},
	}
	var dones []int
	rep, err := Run(context.Background(), cases, 4, 100*time.Millisecond, func(done, total int, o Outcome) {
		if total != len(cases) {
			t.Errorf("progress total = %d, want %d", total, len(cases))
		}
		dones = append(dones, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 4 || len(rep.Outcomes) != 4 || rep.Failures != 2 {
		t.Fatalf("runs=%d outcomes=%d failures=%d, want 4/4/2", rep.Runs, len(rep.Outcomes), rep.Failures)
	}
	want := []struct{ class, detail string }{
		{ClassBaselineOK, ""},
		{ClassFail, "panic: boom"},
		{ClassFail, "hang: run exceeded 100ms (gave up)"},
		{ClassBaselineOK, ""},
	}
	for i, o := range rep.Outcomes {
		if o.Seed != int64(i) || o.Class != want[i].class || o.Detail != want[i].detail {
			t.Errorf("outcome %d = seed %d %s %q, want seed %d %s %q", i, o.Seed, o.Class, o.Detail, i, want[i].class, want[i].detail)
		}
	}
	if len(dones) != 4 || dones[0] != 1 || dones[3] != 4 {
		t.Errorf("progress counts = %v, want 1..4", dones)
	}
	if rep.Outcomes[0].Wall < 30*time.Millisecond {
		t.Errorf("Wall = %v for a case that slept 30ms", rep.Outcomes[0].Wall)
	}
}

// TestCanceledSweepIsNotAFailure: a sweep whose caller gave up reports
// what finished and the context's error. The cells that never ran, and
// the one the cancellation cut short, are not outcomes — at the parent of
// this test each came back as "fail: hang: run exceeded 1m0s", so Ctrl-C
// on hfchaos printed a FAIL and a replay line per remaining cell.
func TestCanceledSweepIsNotAFailure(t *testing.T) {
	check := func(rep *Report, err error, wantRuns int) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep == nil {
			t.Fatal("no partial report")
		}
		if rep.Runs != wantRuns || rep.Runs != len(rep.Outcomes) || rep.Failures != 0 || len(rep.Failed()) != 0 {
			t.Errorf("runs=%d outcomes=%d failures=%d, want %d finished runs and no failure:\n%s",
				rep.Runs, len(rep.Outcomes), rep.Failures, wantRuns, rep)
		}
		if strings.Contains(rep.String(), "FAIL") {
			t.Errorf("a cancelled sweep printed FAIL lines:\n%s", rep)
		}
	}

	// Cancelled before it starts: seed 1 x 7 designs x (baseline + 2
	// plans), none of the 21 runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Sweep(ctx, Config{Seeds: []int64{1}, PlansPerSeed: 2})
	check(rep, err, 0)

	// Cancelled under way: the first case finished, the second is the one
	// cut short, the third never starts.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	started := 0
	rep, err = Run(ctx, []Case{
		{Outcome{}, func(ctx context.Context, o *Outcome) { started++; o.Class = ClassBaselineOK }},
		{Outcome{}, func(ctx context.Context, o *Outcome) {
			started++
			cancel()
			o.Class, o.Detail = ClassFail, "canceled at cycle 7"
		}},
		{Outcome{}, func(ctx context.Context, o *Outcome) { started++ }},
	}, 1, 0, nil)
	check(rep, err, 1)
	if started != 2 {
		t.Errorf("%d cases started, want 2", started)
	}
}
