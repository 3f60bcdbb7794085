package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// hfdswp runs the command in-process and returns its exit status, stdout
// and stderr.
func hfdswp(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// -run simulates the partition it printed: one stall line per stage.
func TestRunPrintsOneLinePerStage(t *testing.T) {
	code, out, errOut := hfdswp("-bench", "fft2", "-stages", "3", "-run")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "fft2       stages=3 ") {
		t.Errorf("summary line missing:\n%s", out)
	}
	lines := regexp.MustCompile(`(?m)^ +stage (\d): \d+ cycles \(\d+ issuing\), stalls: .*total=\d+$`).FindAllStringSubmatch(out, -1)
	if len(lines) != 3 {
		t.Fatalf("%d stage lines, want 3:\n%s", len(lines), out)
	}
	for i, m := range lines {
		if m[1] != strconv.Itoa(i) {
			t.Errorf("line %d names stage %s", i, m[1])
		}
	}
}

// -asm lists the single-threaded loop, then one program per stage.
func TestAsmListsSingleThenStages(t *testing.T) {
	code, out, errOut := hfdswp("-bench", "wc", "-asm")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	heads := regexp.MustCompile(`(?m)^; program (\S+) \(\d+ instrs\)$`).FindAllStringSubmatch(out, -1)
	var names []string
	for _, m := range heads {
		names = append(names, m[1])
	}
	if got := strings.Join(names, " "); got != "wc.t0 wc.t0 wc.t1" {
		t.Errorf("listings %q, want the single-threaded loop then stages t0 and t1", got)
	}
	if !strings.Contains(out, "halt") {
		t.Error("listings carry no instructions")
	}
}

func TestUnknownBenchExits1(t *testing.T) {
	code, out, errOut := hfdswp("-bench", "nope")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if out != "" || !strings.Contains(errOut, `unknown benchmark "nope"`) || !strings.Contains(errOut, "fft2") {
		t.Errorf("stdout %q, stderr %q: want the valid names on stderr only", out, errOut)
	}
}
