package main

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

// hfexp runs the command in-process and returns its exit status, stdout
// and stderr.
func hfexp(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagsAreTheCatalog: the experiment flags are registered from
// exp.Catalog, so -h lists exactly its Flag column plus the six flags
// that select no experiment.
func TestFlagsAreTheCatalog(t *testing.T) {
	want := map[string]bool{"charts": true, "j": true, "progress": true,
		"metrics": true, "benches": true, "diagnose": true}
	for _, e := range exp.Catalog {
		if e.Flag != "" {
			want[e.Flag] = true
		}
	}
	code, _, usage := hfexp("-h")
	if code != 0 {
		t.Errorf("-h exited %d", code)
	}
	got := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got[m[1]] = true
	}
	if a, b := keys(got), keys(want); a != b {
		t.Errorf("registered flags:\n got %s\nwant %s", a, b)
	}
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

// TestUsageErrors: a command line hfexp would otherwise half-obey is
// refused before anything runs. `hfexp fig7` used to regenerate the whole
// evaluation, and -benches without -metrics was dropped silently.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"fig7"}, {"-fig7", "fig8"}, {"-benches", "wc"}, {"-benches", "wc", "-fig3"}} {
		code, stdout, stderr := hfexp(args...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "hfexp: ") {
			t.Errorf("hfexp %v: exit %d, stdout %q, stderr %q; want exit 1 and a usage error alone", args, code, stdout, stderr)
		}
	}
}

// TestSelectedRowsPrintInCatalogOrder: flags select rows; the catalog
// orders them.
func TestSelectedRowsPrintInCatalogOrder(t *testing.T) {
	code, stdout, stderr := hfexp("-fig3", "-table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	t1, f3 := strings.Index(stdout, "Table 1:"), strings.Index(stdout, "Figure 3:")
	if t1 < 0 || f3 < 0 || t1 > f3 {
		t.Errorf("want Table 1 then Figure 3, got offsets %d and %d in:\n%s", t1, f3, stdout)
	}
	if strings.Contains(stdout, "Table 2:") {
		t.Error("an unselected row printed")
	}
}

// TestChartsCoverFig12: -charts renders every selected result that has a
// Chart(); Figure 12 used to print tables because it had none.
func TestChartsCoverFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates Figure 12's matrix")
	}
	code, stdout, stderr := hfexp("-charts", "-fig12")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if n := strings.Count(stdout, "legend:"); n != 2 {
		t.Errorf("-charts -fig12 drew %d charts, want the producer's and the consumer's:\n%s", n, stdout)
	}
}

// TestObserverReportsDiagnoses: the progress observer is how hfexp learns
// of a bad machine. A deadlocked job's *sim.DeadlockError and an
// unquiesced job's Res.Diagnosis both reach it with the job's name, the
// first one is kept, only the unquiesced exit prints a warning, and a
// clean job adds nothing. Progress lines print only under -progress.
func TestObserverReportsDiagnoses(t *testing.T) {
	hw := design.HeavyWTConfig()
	results := []exp.JobResult{
		{Job: exp.Job{Bench: "wc", Config: hw},
			Err: fmt.Errorf("run: %w", &sim.DeadlockError{Cycle: 42, Diag: &sim.Diagnosis{Reason: "watchdog"}})},
		{Job: exp.Job{Bench: "fir", Config: hw},
			Res: &sim.Result{Cycles: 9, Diagnosis: &sim.Diagnosis{Reason: "unquiesced"}}},
		{Job: exp.Job{Bench: "mcf", Single: true}, Res: &sim.Result{Cycles: 7}},
	}
	const warning = "hfexp: warning: fir/HEAVYWT: cores done but fabric never quiesced (run with hfsim for the fabric dump)\n"
	for _, progress := range []bool{false, true} {
		var out bytes.Buffer
		o := &observer{w: &out, progress: progress}
		if _, d := o.first(); d != nil {
			t.Fatalf("a fresh observer holds diagnosis %q", d.Reason)
		}
		for i, r := range results {
			o.report(i+1, len(results), r)
		}
		if job, d := o.first(); d == nil || job != "wc/HEAVYWT" || d.Reason != "watchdog" {
			t.Errorf("progress=%v: first diagnosis %+v from %q, want the deadlock's from wc/HEAVYWT", progress, d, job)
		}
		got := out.String()
		if !progress && got != warning {
			t.Errorf("progress=false: want the warning alone, %q, got:\n%s", warning, got)
		}
		if progress {
			if strings.Count(got, "warning") != 1 || !strings.Contains(got, warning) {
				t.Errorf("progress=true: want the one warning %q, got:\n%s", warning, got)
			}
			for _, want := range []string{"[1/3] wc/HEAVYWT", "FAILED after", "[2/3] fir/HEAVYWT", "[3/3] mcf/single"} {
				if !strings.Contains(got, want) {
					t.Errorf("progress lines miss %q:\n%s", want, got)
				}
			}
		}
	}
}
