package main

import (
	"bytes"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sweep_v.txt from the current output")

// hfchaos runs the command in-process and returns its exit status, stdout
// and stderr.
func hfchaos(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// withoutDuration drops the closing "(123ms)" line, the only
// non-deterministic line hfchaos prints.
func withoutDuration(t *testing.T, stdout string) string {
	t.Helper()
	body, last, ok := strings.Cut(strings.TrimSuffix(stdout, "\n"), "\n(")
	if !ok || strings.Contains(last, "\n") || !strings.HasSuffix(last, ")") {
		t.Fatalf("stdout does not end in a duration line:\n%s", stdout)
	}
	return body + "\n"
}

// TestSweepGolden pins hfchaos's verbose output byte for byte over a
// pair seed and an MPMC seed: 30 runs whose shot logs cover the
// software-queue, SYNCOPTI and HEAVYWT injection sites, with
// fast-forward on and off (fault triggers count operations, not cycles).
// testdata/sweep_v.txt was recorded from the parent of the PR that put
// the six Injector site methods on one fate() and both sweeps on one
// chaos.Run, so it is the licence for that refactor; the same comparison
// over the whole CI corpus (-seeds 1,2,3,4,5,6,101,102,103 -plans 4 -j 1
// -v, 843 lines) was made by hand then and had sha256
// e5fd7562a852bd48b163089649dbd024f9bb141cb50cf0ebe2e35f19ec497e0a on
// both sides. Run with -update after an intended change.
func TestSweepGolden(t *testing.T) {
	const golden = "testdata/sweep_v.txt"
	for _, noFF := range []string{"", "1"} {
		t.Setenv("HFSTREAM_NO_FASTFORWARD", noFF)
		code, stdout, stderr := hfchaos("-seeds", "1,101", "-plans", "2", "-j", "1", "-v")
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		got := withoutDuration(t, stdout)
		if *update && noFF == "" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("HFSTREAM_NO_FASTFORWARD=%q: output differs from %s (run with -update if intended):\n%s", noFF, golden, got)
		}
	}
}

// TestBadCoordinatesExitOne: a seed or design hfchaos cannot resolve is
// refused before anything runs, with the reason on stderr.
func TestBadCoordinatesExitOne(t *testing.T) {
	for _, c := range []struct{ flag, value, names string }{
		{"-seeds", "1,x", `bad seed "x"`},
		{"-designs", "NOSUCH", `unknown design "NOSUCH"`},
	} {
		code, stdout, stderr := hfchaos(c.flag, c.value)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "hfchaos: ") || !strings.Contains(stderr, c.names) {
			t.Errorf("hfchaos %s %s: exit %d, stdout %q, stderr %q; want exit 1 and %q alone",
				c.flag, c.value, code, stdout, stderr, c.names)
		}
	}
}

// TestFailurePrintsItsReplay: a contract violation exits 1, and the report
// gives every failing outcome one replay line whose flags lead back to its
// cell. -timeout 1ns makes both runs (the baseline and plan 0) a hang.
// The design needs no quoting, so strings.Fields splits the command as a
// shell would; chaos.TestReplayRoundTrip covers the names that do.
func TestFailurePrintsItsReplay(t *testing.T) {
	code, stdout, _ := hfchaos("-seeds", "4", "-designs", "SYNCOPTI_SC+Q64", "-plans", "1", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL seed=4 design=SYNCOPTI_SC+Q64") || !strings.Contains(stdout, "hang: run exceeded 1ns") {
		t.Errorf("no FAIL line naming the cell and the hang:\n%s", stdout)
	}
	var replays []string
	for _, line := range strings.Split(stdout, "\n") {
		if cmd, ok := strings.CutPrefix(line, "  replay: "); ok {
			replays = append(replays, cmd)
		}
	}
	if len(replays) != 2 {
		t.Fatalf("%d replay lines, want 2:\n%s", len(replays), stdout)
	}
	for i, cmd := range replays {
		words := strings.Fields(cmd)
		flags := map[string]string{}
		for j := 0; j+1 < len(words); j++ {
			if strings.HasPrefix(words[j], "-") {
				flags[words[j]] = words[j+1]
			}
		}
		if flags["-seeds"] != "4" || flags["-designs"] != "SYNCOPTI_SC+Q64" || flags["-plans"] != strconv.Itoa(i) {
			t.Errorf("replay %d = %q: parsed back to %v", i, cmd, flags)
		}
	}
}

// TestClusterFamily: -cluster sends the same flags through the
// service-tier scenarios and the same report.
func TestClusterFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("starts hfserve clusters")
	}
	code, stdout, stderr := hfchaos("-cluster", "-seeds", "1", "-plans", "1", "-requests", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, stdout, stderr)
	}
	if !strings.HasPrefix(stdout, "chaos: 2 runs, 0 failures\n") || !strings.Contains(stdout, "baseline-ok    1\n") || !strings.Contains(stdout, "delay-ok       1\n") {
		t.Errorf("want a baseline and a delay scenario, got:\n%s", stdout)
	}
}
