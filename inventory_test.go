package hfstream

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignInventoryComplete: DESIGN.md's "System inventory" has a row
// for every package directory of the module, so a new package is described
// where a reader looks for it. A nested module (bench/spine) is not one of
// this module's packages.
func TestDesignInventoryComplete(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, found := strings.Cut(string(doc), "## System inventory")
	if !found {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." {
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		row := "| `" + filepath.ToSlash(path) + "` |"
		if path == "." {
			row = "| root `hfstream` |"
		}
		for _, e := range entries {
			if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				if !strings.Contains(inventory, row) {
					t.Errorf("DESIGN.md's System inventory has no %q row for package directory %s", row, path)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
