package exp

import (
	"context"
	"sync"
	"testing"

	"hfstream/internal/sim"
)

// The diagnosis hook is the channel hfexp uses to surface deadlock
// forensics from a concurrent grid; both producer paths — a job failing
// with a *sim.DeadlockError and a job completing with UnquiescedExit —
// must reach it with the job's name attached.
func TestDiagnosisHookReceivesForensics(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{} // job name -> diagnosis reason
	SetDiagnosisHook(func(job string, d *sim.Diagnosis) {
		mu.Lock()
		defer mu.Unlock()
		got[job] = d.Reason
	})
	defer SetDiagnosisHook(nil)

	jobs := []Job{
		{Bench: "deadlocked"},
		{Bench: "unquiesced"},
		{Bench: "clean"},
	}
	r := &Runner{
		Workers: 2,
		run: func(ctx context.Context, j Job) (*sim.Result, error) {
			switch j.Bench {
			case "deadlocked":
				return nil, &sim.DeadlockError{
					Cycle: 42,
					Diag:  &sim.Diagnosis{Reason: "watchdog"},
				}
			case "unquiesced":
				return &sim.Result{Diagnosis: &sim.Diagnosis{Reason: "unquiesced"}}, nil
			default:
				return &sim.Result{}, nil
			}
		},
	}
	results := r.Run(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}

	mu.Lock()
	defer mu.Unlock()
	if want := 2; len(got) != want {
		t.Fatalf("hook fired for %d jobs (%v), want %d", len(got), got, want)
	}
	if got[jobs[0].Name()] != "watchdog" {
		t.Errorf("deadlock diagnosis missing or wrong: %v", got)
	}
	if _, ok := got[jobs[1].Name()]; !ok {
		t.Errorf("unquiesced diagnosis missing: %v", got)
	}
	if _, ok := got[jobs[2].Name()]; ok {
		t.Errorf("clean job should not produce a diagnosis: %v", got)
	}
}
