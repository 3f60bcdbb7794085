package exp

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments from this build's output")

// TestCatalogGolden pins the whole evaluation: every catalog row renders
// byte for byte what testdata/experiments/<name>.txt holds, so a moved
// cycle count anywhere in the design-space grid — any benchmark, any
// configuration, any core count — is a reviewed diff of a text table
// rather than an agreement between two paths that moved together. Record
// an intended movement with
//
//	go test ./internal/exp -run TestCatalogGolden -update
func TestCatalogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole evaluation")
	}
	dir := filepath.Join("testdata", "experiments")
	for _, e := range Catalog {
		t.Run(e.Name, func(t *testing.T) {
			got := figure(t, e.Name).Table()
			path := filepath.Join(dir, e.Name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s moved (-update records an intended movement)\n--- got\n%s--- want\n%s", e.Name, got, want)
			}
		})
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(Catalog) {
		t.Errorf("%s holds %d files for %d catalog rows: delete the golden of a removed experiment", dir, len(files), len(Catalog))
	}
}

// figures holds each catalog row run so far, by name, so that
// TestCatalogGolden and every shape test read one run of a row.
var figures = map[string]Figure{}

// catalogRuns holds every job a catalog row ran to a result, so that the
// determinism battery's fast-forwarded half reads the cells the catalog
// already simulated instead of simulating them again. It is keyed by the
// whole job, not its name: Figures 10 and 11 rerun the standard designs'
// names on other buses.
var catalogRuns = struct {
	sync.Mutex
	m map[Job]JobResult
}{m: map[Job]JobResult{}}

// catalogRun returns the catalog's run of j, if one was recorded.
func catalogRun(j Job) (JobResult, bool) {
	catalogRuns.Lock()
	defer catalogRuns.Unlock()
	r, ok := catalogRuns.m[j]
	return r, ok
}

// figure runs the catalog row called name once per test binary, recording
// its jobs in catalogRuns.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	if f, ok := figures[name]; ok {
		return f
	}
	SetProgress(func(_, _ int, r JobResult) {
		if r.Err == nil {
			catalogRuns.Lock()
			catalogRuns.m[r.Job] = r
			catalogRuns.Unlock()
		}
	})
	defer SetProgress(nil)
	for _, e := range Catalog {
		if e.Name == name {
			f, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			figures[name] = f
			return f
		}
	}
	t.Fatalf("no catalog row %q", name)
	return nil
}

// TestCatalogNames: a name is a file name, a RunExperiment argument and
// DESIGN.md's index key, so it is unique; a flag is shared only by rows
// that say the same thing about it.
func TestCatalogNames(t *testing.T) {
	names := map[string]bool{}
	help := map[string]string{}
	for _, e := range Catalog {
		if e.Name == "" || names[e.Name] {
			t.Errorf("catalog name %q is empty or repeated", e.Name)
		}
		names[e.Name] = true
		if h, ok := help[e.Flag]; ok && e.Flag != "" && h != e.Help {
			t.Errorf("rows sharing -%s disagree on its help: %q vs %q", e.Flag, h, e.Help)
		}
		help[e.Flag] = e.Help
	}
}
