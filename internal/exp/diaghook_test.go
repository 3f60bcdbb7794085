package exp

import (
	"context"
	"errors"
	"testing"

	"hfstream/internal/sim"
)

// The progress observer installed with SetProgress is the channel hfexp
// uses to surface deadlock forensics from a concurrent grid; both producer
// paths — a job failing with a *sim.DeadlockError and a job completing
// with UnquiescedExit — must reach it with the job's name attached.
func TestDiagnosisHookReceivesForensics(t *testing.T) {
	got := map[string]string{} // job name -> diagnosis reason; Progress calls are serialized
	SetProgress(func(_, _ int, jr JobResult) {
		var de *sim.DeadlockError
		switch {
		case errors.As(jr.Err, &de) && de.Diag != nil:
			got[jr.Job.Name()] = de.Diag.Reason
		case jr.Res != nil && jr.Res.Diagnosis != nil:
			got[jr.Job.Name()] = jr.Res.Diagnosis.Reason
		}
	})
	defer SetProgress(nil)

	jobs := []Job{
		{Bench: "deadlocked"},
		{Bench: "unquiesced"},
		{Bench: "clean"},
	}
	r := newRunner()
	r.Workers = 2
	r.run = func(ctx context.Context, j Job) (*sim.Result, error) {
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
	}
	results := r.Run(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}

	if want := 2; len(got) != want {
		t.Fatalf("observer saw diagnoses for %d jobs (%v), want %d", len(got), got, want)
	}
	if got[jobs[0].Name()] != "watchdog" {
		t.Errorf("deadlock diagnosis missing or wrong: %v", got)
	}
	if got[jobs[1].Name()] != "unquiesced" {
		t.Errorf("unquiesced diagnosis missing or wrong: %v", got)
	}
	if _, ok := got[jobs[2].Name()]; ok {
		t.Errorf("clean job should not produce a diagnosis: %v", got)
	}
}
