package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"hfstream/fault"
	"hfstream/internal/design"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
)

// runPipeFaulted is runPipe with a fault injector attached; it returns the
// raw outcome instead of asserting success so loss-class tests can inspect
// the typed error.
func runPipeFaulted(t *testing.T, cfg design.Config, n int64, in *fault.Injector) (*sim.Result, uint64, error) {
	t.Helper()
	prod, cons := producerProg(n), consumerProg()
	if cfg.SoftwareQueues() {
		var err error
		prod, err = lower.Lower(prod, cfg.Layout())
		if err != nil {
			t.Fatalf("lower producer: %v", err)
		}
		cons, err = lower.Lower(cons, cfg.Layout())
		if err != nil {
			t.Fatalf("lower consumer: %v", err)
		}
	}
	image := mem.New()
	simCfg := cfg.SimConfig()
	simCfg.WatchdogIdle = 20000
	simCfg.Faults = in
	res, err := sim.Run(simCfg, image, []sim.Thread{{Prog: prod}, {Prog: cons}})
	return res, image.Read8(resultAddr), err
}

// TestDelayFaultsPreserveResults: delay-class faults are latency-only — a
// run with a firing delay plan completes and produces the same
// architectural result as the fault-free run.
func TestDelayFaultsPreserveResults(t *testing.T) {
	const n = 300
	want := uint64(n * (n + 1) / 2)
	cases := []struct {
		name string
		cfg  design.Config
		ev   fault.Event
	}{
		{"syncopti-bus-delay", design.SyncOptiConfig(), fault.Event{Kind: fault.BusDelay, Nth: 3, Delay: 40}},
		{"syncopti-forward-delay", design.SyncOptiConfig(), fault.Event{Kind: fault.ForwardDelay, Nth: 2, Delay: 25}},
		{"existing-recirc-storm", design.ExistingConfig(), fault.Event{Kind: fault.RecircStorm, Nth: 1, Count: 4}},
		{"heavywt-bus-delay", design.HeavyWTConfig(), fault.Event{Kind: fault.BusDelay, Nth: 1, Delay: 100}},
		{"heavywt-sa-ack-delay", design.HeavyWTConfig(), fault.Event{Kind: fault.SAAckDelay, Nth: 2, Delay: 30}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.Plan{Seed: 1, Events: []fault.Event{tc.ev}}
			if err := plan.Validate(); err != nil {
				t.Fatal(err)
			}
			in := plan.Injector()
			res, got, err := runPipeFaulted(t, tc.cfg, n, in)
			if err != nil {
				t.Fatalf("delay-class run failed: %v", err)
			}
			if got != want {
				t.Errorf("sum = %d, want %d (delay faults must not change results)", got, want)
			}
			if !in.Fired() {
				t.Error("plan never fired; test exercises nothing")
			}
			if in.LossFired() {
				t.Error("delay-class plan reported a loss shot")
			}
			if res.Diagnosis != nil {
				t.Error("delay-class run exited unquiesced")
			}
		})
	}
}

// TestRandomDelayPlansOracleEquivalent: seeded random delay plans are
// latency-only across designs — the canonical pipe still computes the
// right sum on every (seed, design) pair.
func TestRandomDelayPlansOracleEquivalent(t *testing.T) {
	const n = 200
	want := uint64(n * (n + 1) / 2)
	configs := []design.Config{
		design.ExistingConfig(),
		design.SyncOptiConfig(),
		design.HeavyWTConfig(),
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			cfg, seed := cfg, seed
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name(), seed), func(t *testing.T) {
				in := fault.RandomDelay(seed, 3).Injector()
				_, got, err := runPipeFaulted(t, cfg, n, in)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got != want {
					t.Errorf("seed %d: sum = %d, want %d", seed, got, want)
				}
			})
		}
	}
}

// TestLossFaultsDetected: loss-class faults sever a protocol path; the run
// must end in a typed DeadlockError carrying a populated Diagnosis — never
// a hang, never a silently wrong result.
func TestLossFaultsDetected(t *testing.T) {
	const n = 200 // enough traffic to exhaust any queue depth after the cut
	cases := []struct {
		name string
		cfg  design.Config
		kind fault.Kind
	}{
		{"syncopti-forward-drop", design.SyncOptiConfig(), fault.ForwardDrop},
		{"syncopti-stale-occupancy", design.SyncOptiConfig(), fault.StaleOccupancy},
		{"heavywt-sa-credit-drop", design.HeavyWTConfig(), fault.SACreditDrop},
		{"heavywt-sa-data-drop", design.HeavyWTConfig(), fault.SADataDrop},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.Plan{Seed: 1, Events: []fault.Event{{Kind: tc.kind, Nth: 1}}}
			in := plan.Injector()
			_, _, err := runPipeFaulted(t, tc.cfg, n, in)
			var dl *sim.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("error = %v (%T), want DeadlockError", err, err)
			}
			if dl.Diag == nil {
				t.Fatal("DeadlockError carries no Diagnosis")
			}
			if len(dl.Diag.Cores) == 0 {
				t.Error("Diagnosis has no per-core state")
			}
			if !in.LossFired() {
				t.Error("loss shot not recorded")
			}
			if len(dl.Diag.FaultShots) == 0 {
				t.Error("Diagnosis.FaultShots empty despite a fired loss plan")
			}
		})
	}
}

// TestLossPlanBenignOnSoftwareQueues: EXISTING has no hardware forward or
// sync-array path, so a loss plan never finds its injection site — the run
// completes correctly and the injector reports nothing fired.
func TestLossPlanBenignOnSoftwareQueues(t *testing.T) {
	const n = 100
	in := fault.Plan{Seed: 1, Events: []fault.Event{{Kind: fault.ForwardDrop, Nth: 1}}}.Injector()
	_, got, err := runPipeFaulted(t, design.ExistingConfig(), n, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(n * (n + 1) / 2); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if in.Fired() {
		t.Errorf("forward-drop fired on a software-queue design: %v", in.ShotStrings())
	}
}
