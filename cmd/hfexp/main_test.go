package main

import (
	"bytes"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hfstream/internal/exp"
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
