package chaos

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"hfstream"
	"hfstream/fault"
	"hfstream/trace"
)

// lossDiagnosis runs bench on design under fault.RandomLoss(seed) and
// returns the Diagnosis the loss ends in: a deadlock's or an unquiesced
// exit's.
func lossDiagnosis(t *testing.T, bench, design string, seed int64, traced bool) *hfstream.Diagnosis {
	t.Helper()
	b, err := hfstream.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hfstream.DesignByName(design)
	if err != nil {
		t.Fatal(err)
	}
	opts := []hfstream.RunOpt{hfstream.WithFaults(fault.RandomLoss(seed))}
	if traced {
		opts = append(opts, hfstream.WithTrace(trace.NewSink()))
	}
	res, err := hfstream.RunCtx(context.Background(), b, d, opts...)
	var dl *hfstream.DeadlockError
	switch {
	case errors.As(err, &dl) && dl.Diag != nil:
		return dl.Diag
	case err != nil:
		t.Fatalf("%s/%s under RandomLoss(%d): %v", bench, design, seed, err)
	case res.Diagnosis == nil:
		t.Fatalf("%s/%s under RandomLoss(%d): the loss left no Diagnosis", bench, design, seed)
	}
	return res.Diagnosis
}

// TestLossDiagnosisGolden pins the JSON and the text of two loss-plan
// diagnoses that, unlike the canonical deadlocks, hold in-flight OzQ
// entries, stream-queue counters, sync-array queues, bus requests and
// (traced) recent events. Run with -update after an intentional change.
func TestLossDiagnosisGolden(t *testing.T) {
	for _, c := range []struct {
		bench, design string
		seed          int64
		traced        bool
		golden        string
	}{
		{"adpcmdec", "SYNCOPTI", 2001, true, "testdata/loss_diag_adpcmdec_syncopti"},
		{"adpcmdec", "HEAVYWT", 1001, false, "testdata/loss_diag_adpcmdec_heavywt"},
	} {
		d := lossDiagnosis(t, c.bench, c.design, c.seed, c.traced)
		js, err := hfstream.DiagnosisJSON(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			path string
			got  []byte
		}{{c.golden + ".json", js}, {c.golden + ".txt", []byte(d.String())}} {
			if *update {
				if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.got, want) {
				t.Errorf("%s drifted from the golden; rerun with -update if intended\n got: %s", f.path, f.got)
			}
		}
	}
}
