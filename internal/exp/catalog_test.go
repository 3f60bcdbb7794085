package exp

import (
	"context"
	"flag"
	"os"
	"path/filepath"
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
			fig, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := fig.Table()
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
