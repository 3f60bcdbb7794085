package dswp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"hfstream/internal/dswp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/workloads"
)

// irKernels builds the benchmarks that are written as IR loops (all but
// the hand-partitioned bzip2).
func irKernels() []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, b := range workloads.All() {
		if b.Loop != nil {
			out = append(out, b)
		}
	}
	return out
}

// refCutsFile holds the exhaustive reference search's answer for every
// case refCases enumerates. TestBestCutMatchesReference holds bestCut to
// it; `make refcut-check` reruns the reference against it (refcut_test.go).
const refCutsFile = "testdata/refcuts.txt"

// refSeeds is the number of seeded random loops refcuts.txt covers.
const refSeeds = 2000

// refCases calls fn on every case of refcuts.txt, in the file's order: each
// IR kernel at 2..8 stages, then random loops 1..refSeeds at 2..5 stages.
// A random loop gets 0-2 random pins at each stage count (often
// unsatisfiable, which both searches must agree on), and on even seeds an
// exit condition that depends on a load, so the control slice is streamed
// and its SCCs are forced into stage 0.
func refCases(fn func(name string, l *ir.Loop, n int)) {
	for _, b := range irKernels() {
		for n := 2; n <= 8; n++ {
			fn(b.Name, b.Loop, n)
		}
	}
	for seed := 1; seed <= refSeeds; seed++ {
		l, _, _ := dswp.RandomLoop(uint32(seed), 40)
		if seed%2 == 0 {
			var ld *ir.Node
			for _, nd := range l.Body {
				if nd.Op == isa.Ld {
					ld = nd
					break
				}
			}
			odd := l.Op(isa.Or, ir.V(ld), ir.C(1))
			l.SetExit(l.Op(isa.And, ir.V(l.Exit), ir.V(odd)))
		}
		rng := uint32(seed)*2654435761 | 1
		next := func(m int) int {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return int(rng>>1) % m
		}
		for n := 2; n <= 5; n++ {
			l.Pins = nil
			for i := seed % 3; i > 0; i-- {
				l.Pin(l.Body[next(len(l.Body))], next(n))
			}
			fn(fmt.Sprintf("seed%d", seed), l, n)
		}
	}
}

// refLine renders one search's answer as its refcuts.txt line: the case,
// the stage count, and the first free SCC of stages 1..n-1, or "none" when
// the loop has no partition of that many stages.
func refLine(name string, n int, cuts []int, err error) string {
	if err != nil {
		return fmt.Sprintf("%s %d none", name, n)
	}
	s := make([]string, len(cuts))
	for i, c := range cuts {
		s[i] = strconv.Itoa(c)
	}
	return fmt.Sprintf("%s %d %s", name, n, strings.Join(s, ","))
}

// checkRefCuts runs search on every case of refcuts.txt and fails at the
// first answer that differs from the file's.
func checkRefCuts(t *testing.T, search func(*ir.Loop, int) (*dswp.Result, []int, error)) {
	raw, err := os.ReadFile(refCutsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	i, valid := 0, 0
	refCases(func(name string, l *ir.Loop, n int) {
		_, cuts, err := search(l, n)
		if i >= len(want) {
			t.Fatalf("%s ends after %d cases", refCutsFile, i)
		}
		if got := refLine(name, n, cuts, err); got != want[i] {
			t.Fatalf("case %d is %q, %s has %q", i+1, got, refCutsFile, want[i])
		}
		if err == nil && strings.HasPrefix(name, "seed") {
			valid++
		}
		i++
	})
	if i != len(want) {
		t.Errorf("%d cases, %s has %d", i, refCutsFile, len(want))
	}
	if valid < refSeeds {
		t.Errorf("only %d of %d random cases had a valid cut; the comparison is mostly vacuous", valid, 4*refSeeds)
	}
}

// TestBestCutMatchesReference: bestCut picks the exhaustive reference's cut
// on every case of refcuts.txt. Both searches hand their cut to
// cutSpace.emit, so an equal cut is an equal assignment, equal queue routes
// and equal thread programs.
func TestBestCutMatchesReference(t *testing.T) {
	checkRefCuts(t, dswp.PartitionNCuts)
}

// The cut of every kernel at every stage count, as the exhaustive search
// chose it at the commit before bestCut was rewritten (testdata/cuts.json
// was generated there; null means PartitionN returned an error).
func TestCutsArePinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/cuts.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Bench string `json:"bench"`
		N     int    `json:"n"`
		Cuts  []int  `json:"cuts"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if want := 7 * len(irKernels()); len(rows) != want {
		t.Fatalf("%d pinned rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		b, err := workloads.ByName(r.Bench)
		if err != nil {
			t.Fatal(err)
		}
		_, cuts, err := dswp.PartitionNCuts(b.Loop, r.N)
		if err != nil {
			cuts = nil
		}
		if !reflect.DeepEqual(cuts, r.Cuts) {
			t.Errorf("%s at %d stages: cut %v (err %v), pinned %v", r.Bench, r.N, cuts, err, r.Cuts)
		}
	}
}

// A loop that cannot fill n stages is told which of the two reasons
// applies: too few SCCs to hand out, or pins that exclude every cut.
func TestPartitionNUnfillableShapes(t *testing.T) {
	for _, c := range []struct {
		bench string
		n     int
		want  string
	}{
		{"epicdec", 8, "too little partitionable work"}, // no pins; 7 free SCCs and stage 0 needs one
		{"mcf", 6, "too little partitionable work"},
		{"mcf", 7, "cannot form 7 stages"},
		{"wc", 7, "(check pins)"},
		{"wc", 8, "(check pins)"},
	} {
		b, err := workloads.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		_, err = dswp.PartitionN(b.Loop, c.n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("PartitionN(%s, %d): error %v, want one containing %q", c.bench, c.n, err, c.want)
		}
	}
}

// Allocation ceilings stand in for timing: the exhaustive search made
// 179 536 allocations on fir at 6 stages and millions on fft2 at 8. The
// two sums over the eight kernels (a declined shape counts what it
// allocated before declining) are the counts go1.24 measured once the
// per-node tables became slices indexed by node ID; before that they were
// 7 576 and 4 194, and 7 968 and 4 883 before the thread generators came
// to share one emitter.
func TestPartitionAllocationCeilings(t *testing.T) {
	allocs := func(partition func(*ir.Loop, int) (*dswp.Result, error), l *ir.Loop, n int) float64 {
		return testing.AllocsPerRun(20, func() { partition(l, n) })
	}
	loops := map[string]*ir.Loop{}
	chains, workers := 0.0, 0.0
	for _, b := range irKernels() {
		loops[b.Name] = b.Loop
		for _, n := range []int{2, 3, 4, 6} {
			chains += allocs(dswp.PartitionN, b.Loop, n)
		}
		for _, w := range []int{2, 3, 5} {
			workers += allocs(dswp.PartitionParallel, b.Loop, w)
		}
	}
	for _, deep := range []struct {
		bench string
		n     int
	}{{"fft2", 8}, {"fir", 6}} {
		if got := allocs(dswp.PartitionN, loops[deep.bench], deep.n); got >= 1000 {
			t.Errorf("PartitionN(%s, %d): %.0f allocations, want under 1000", deep.bench, deep.n, got)
		}
	}
	if raceEnabled() {
		return // the race detector's instrumentation allocates
	}
	if chains > 2778 {
		t.Errorf("chains of 2, 3, 4 and 6 stages: %.0f allocations, want at most 2778", chains)
	}
	if workers > 2303 {
		t.Errorf("PS-DSWP with 2, 3 and 5 workers: %.0f allocations, want at most 2303", workers)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				return true
			}
		}
	}
	return false
}
