package workloads_test

import (
	"reflect"
	"testing"

	"hfstream/internal/workloads"
)

// figureOrder is the order of the paper's figures, which internal/exp
// indexes its result grids by (grid[bi][ci]) and labels its rows with.
var figureOrder = []string{"art", "equake", "mcf", "bzip2", "adpcmdec", "epicdec", "wc", "fir", "fft2"}

// TestCatalogIsTheTable: the name table, All and the figure order are one
// list, and each name builds the benchmark that carries it.
func TestCatalogIsTheTable(t *testing.T) {
	names := workloads.Names()
	if !reflect.DeepEqual(names, figureOrder) {
		t.Fatalf("Names() = %v, want the figure order %v", names, figureOrder)
	}
	all := workloads.All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d benchmarks, the table %d", len(all), len(names))
	}
	for i, name := range names {
		if all[i].Name != name {
			t.Errorf("All()[%d] is %q, the table says %q", i, all[i].Name, name)
		}
		if err := workloads.Check(name); err != nil {
			t.Errorf("Check(%q): %v", name, err)
		}
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != name {
			t.Errorf("ByName(%q) built %q", name, b.Name)
		}
	}
}

// TestByNameBuildsAFreshInstance: exp.Runner's workers and the oracle each
// take their own benchmark so that they share no mutable state.
func TestByNameBuildsAFreshInstance(t *testing.T) {
	for _, name := range workloads.Names() {
		a, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s: two ByName calls returned one *Benchmark", name)
		}
		if a.Loop != nil && a.Loop == b.Loop {
			t.Errorf("%s: two ByName calls share one *ir.Loop", name)
		}
		pa, err := a.Single()
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Single()
		if err != nil {
			t.Fatal(err)
		}
		if pa == pb {
			t.Errorf("%s: two ByName calls share one single-threaded program", name)
		}
	}
}

// TestUnknownNameError pins the text: it travels in HTTP 400 bodies.
func TestUnknownNameError(t *testing.T) {
	const want = `workloads: unknown benchmark "nope" (have: art equake mcf bzip2 adpcmdec epicdec wc fir fft2)`
	if err := workloads.Check("nope"); err == nil || err.Error() != want {
		t.Errorf("Check: %v\nwant: %s", err, want)
	}
	if b, err := workloads.ByName("nope"); b != nil || err == nil || err.Error() != want {
		t.Errorf("ByName: %v, %v\nwant: %s", b, err, want)
	}
}

// TestCatalogAllocationCeilings: a name check builds nothing, and asking
// for one benchmark builds one (fft2, the largest, takes 78 allocations;
// all nine take 433).
func TestCatalogAllocationCeilings(t *testing.T) {
	if got := testing.AllocsPerRun(10, func() {
		if err := workloads.Check("fft2"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Check(fft2): %.0f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := workloads.ByName("fft2"); err != nil {
			t.Fatal(err)
		}
	}); got > 120 {
		t.Errorf("ByName(fft2): %.0f allocations, want at most 120", got)
	}
}
