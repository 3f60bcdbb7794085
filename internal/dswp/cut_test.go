package dswp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
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

// sameAsReference partitions l both ways and reports any difference in
// outcome: the cut, the assignment, the queue routes, the thread programs.
// cut is false when both agree that the loop has no n-stage partition.
func sameAsReference(l *ir.Loop, n int) (cut bool, err error) {
	got, gotCuts, gotErr := dswp.PartitionNCuts(l, n)
	want, wantCuts, wantErr := dswp.PartitionNRef(l, n)
	if (gotErr == nil) != (wantErr == nil) {
		return false, fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return false, nil
	}
	if !reflect.DeepEqual(gotCuts, wantCuts) {
		return true, fmt.Errorf("cut %v, reference %v", gotCuts, wantCuts)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		return true, fmt.Errorf("assignment %v, reference %v", got.Assignment, want.Assignment)
	}
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		return true, fmt.Errorf("routes %v, reference %v", got.Routes, want.Routes)
	}
	if !reflect.DeepEqual(got.Threads, want.Threads) {
		return true, fmt.Errorf("thread programs differ from the reference's")
	}
	return true, nil
}

func TestBestCutMatchesReference(t *testing.T) {
	for _, b := range irKernels() {
		for n := 2; n <= 8; n++ {
			if testing.Short() && n >= 7 && (b.Name == "fir" || b.Name == "fft2") {
				continue // the reference takes 0.4-5 s on each
			}
			if _, err := sameAsReference(b.Loop, n); err != nil {
				t.Errorf("%s at %d stages: %v", b.Name, n, err)
			}
		}
	}

	// Seeded random loops: 0-2 random pins (often unsatisfiable, which
	// both searches must agree on), and on even seeds an exit condition
	// that depends on a load, so the control slice is streamed and its
	// SCCs are forced into stage 0.
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	valid := 0
	for seed := 1; seed <= seeds; seed++ {
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
			cut, err := sameAsReference(l, n)
			if err != nil {
				t.Fatalf("seed %d at %d stages, pins %v: %v", seed, n, l.Pins, err)
			}
			if cut {
				valid++
			}
		}
	}
	if valid < seeds {
		t.Errorf("only %d of %d random cases had a valid cut; the comparison is mostly vacuous", valid, 4*seeds)
	}
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
// 179 536 allocations on fir at 6 stages and millions on fft2 at 8, and
// the eight dual-core partitions the paper's matrix runs made 2 451.
func TestPartitionAllocationCeilings(t *testing.T) {
	allocs := func(l *ir.Loop, n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := dswp.PartitionN(l, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	loops := map[string]*ir.Loop{}
	dual := 0.0
	for _, b := range irKernels() {
		loops[b.Name] = b.Loop
		dual += allocs(b.Loop, 2)
	}
	for _, deep := range []struct {
		bench string
		n     int
	}{{"fft2", 8}, {"fir", 6}} {
		if got := allocs(loops[deep.bench], deep.n); got >= 1000 {
			t.Errorf("PartitionN(%s, %d): %.0f allocations, want under 1000", deep.bench, deep.n, got)
		}
	}
	if dual > 2451 {
		t.Errorf("the eight 2-stage partitions: %.0f allocations, want at most 2451", dual)
	}
}
