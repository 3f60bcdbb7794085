package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"hfstream/chaos"
	scluster "hfstream/serve/cluster"
)

// corpus mirrors chaos/testdata/cluster_seeds.json.
type corpus struct {
	Seeds        []int64 `json:"seeds"`
	PlansPerSeed int     `json:"plans_per_seed"`
	Replicas     int     `json:"replicas"`
}

func loadCorpus(t *testing.T) corpus {
	t.Helper()
	raw, err := os.ReadFile("../testdata/cluster_seeds.json")
	if err != nil {
		t.Fatal(err)
	}
	var c corpus
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Seeds) == 0 || c.PlansPerSeed == 0 || c.Replicas == 0 {
		t.Fatalf("degenerate corpus: %+v", c)
	}
	return c
}

// TestClusterChaosPlanDerivation pins the seeded plan derivation: the
// class alternation, determinism, and the channel-safety rule that the
// undigested driver channel never draws body-damage kinds.
func TestClusterChaosPlanDerivation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for idx := 0; idx < 6; idx++ {
			for r := 0; r < 3; r++ {
				p := ReplicaPlan(seed, idx, r)
				if p.String() != ReplicaPlan(seed, idx, r).String() {
					t.Fatalf("ReplicaPlan(%d,%d,%d) not deterministic", seed, idx, r)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("ReplicaPlan(%d,%d,%d): %v", seed, idx, r, err)
				}
				if wantLoss := idx%2 == 1; p.HasLoss() != wantLoss {
					t.Fatalf("ReplicaPlan(%d,%d,%d) loss=%v, want %v", seed, idx, r, p.HasLoss(), wantLoss)
				}
			}
			d := DriverPlan(seed, idx)
			if err := d.Validate(); err != nil {
				t.Fatalf("DriverPlan(%d,%d): %v", seed, idx, err)
			}
			for _, e := range d.Events {
				if e.Kind.String() == "truncate-body" || e.Kind.String() == "corrupt-body" {
					t.Fatalf("DriverPlan(%d,%d) drew body-damage kind %s for the undigested channel", seed, idx, e.Kind)
				}
			}
		}
	}
}

// TestClusterChaosSmoke runs the first corpus seed's full scenario set
// — baseline, two delay plans, two loss plans — against real replicas,
// expecting zero contract violations, and checks that the harness
// winds all of its goroutines down.
func TestClusterChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos smoke is not a -short test")
	}
	c := loadCorpus(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Sweep(ctx, Config{
		Seeds:        c.Seeds[:1], // CI smoke: one seed; the full corpus runs via cmd/hfchaos -cluster
		PlansPerSeed: c.PlansPerSeed,
		Replicas:     c.Replicas,
		Progress: func(done, total int, o chaos.Outcome) {
			t.Logf("[%d/%d] seed=%d plan=%d %-14s errors=%d retries=%d %v",
				done, total, o.Seed, o.PlanIndex, o.Class, o.Errors, o.Retries, o.Wall.Round(time.Millisecond))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		t.Fatalf("contract violations:\n%s", rep.String())
	}
	if rep.Runs != 1+c.PlansPerSeed {
		t.Fatalf("ran %d scenarios, want %d", rep.Runs, 1+c.PlansPerSeed)
	}
	// Every class must appear: a sweep whose loss plans never fired
	// would be vacuous.
	seen := map[string]bool{}
	for _, o := range rep.Outcomes {
		seen[o.Class] = true
	}
	for _, want := range []string{chaos.ClassBaselineOK, chaos.ClassDelayOK, ClassLossSurvived} {
		if !seen[want] {
			t.Errorf("no scenario classified %s:\n%s", want, rep.String())
		}
	}

	// Leak check: the scenarios' servers, peerings, and transports must
	// all be gone.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before sweep, %d after", before, runtime.NumGoroutine())
}

// TestCanceledClusterSweep: the service-tier sweep goes through the same
// chaos.Run, so a caller that gave up gets context.Canceled and a report
// with no scenario in it — not a failed one.
func TestCanceledClusterSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Sweep(ctx, Config{Seeds: []int64{1}, PlansPerSeed: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Runs != len(rep.Outcomes) || len(rep.Failed()) != 0 {
		t.Fatalf("report = %+v, want no failed outcome and Runs == len(Outcomes)", rep)
	}
}

// TestScenarioIssuesEveryRequest: a scenario sends all of cfg.Requests,
// not the largest multiple of its worker count below it. A baseline has
// no faults and so no retries, and the audit reads /v1/peer, which the
// request counter does not see — the replicas' counters sum to exactly
// what the driver issued. (It was 4 of 5 when each of four workers took
// Requests/4, and a scenario of 3 requests passed having sent none.)
func TestScenarioIssuesEveryRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an hfserve cluster")
	}
	ctx := context.Background()
	refs, err := references(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, requests := range []int{3, 5} {
		lb, err := scluster.NewLoopback(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		hc := &http.Client{Transport: &http.Transport{}}
		o := chaos.Outcome{Seed: 1, PlanIndex: -1, Replicas: 3}
		drive(ctx, Config{Requests: requests, MaxLatency: 10 * time.Second}, refs, lb, hc, &o)
		var served uint64
		for _, r := range lb.Replicas {
			served += r.Server.Metrics().Requests
		}
		hc.CloseIdleConnections()
		if err := lb.Close(ctx); err != nil {
			t.Error(err)
		}
		if o.Class != chaos.ClassBaselineOK || served != uint64(requests) {
			t.Errorf("Requests %d: class %s (%s), replicas served %d requests", requests, o.Class, o.Detail, served)
		}
	}
}
