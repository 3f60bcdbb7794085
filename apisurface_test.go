package hfstream

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the current source")

// apiInternal lists the internal packages whose exported surface is pinned
// beside the importable ones: the simulator and the experiment harness
// that every public entry point is built on.
var apiInternal = map[string]bool{"internal/sim": true, "internal/exp": true}

// TestExportedSurfacePinned holds the module's exported declarations to
// testdata/api.txt: one line per exported func, method, type, const and
// var, and per exported struct field or interface method, of every
// non-main package outside internal/ plus apiInternal. A change to the
// surface shows up as a diff of that file; -update records it.
func TestExportedSurfacePinned(t *testing.T) {
	var lines []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel := filepath.ToSlash(dir)
		name := d.Name()
		if dir != "." && (strings.HasPrefix(name, ".") || name == "testdata") ||
			strings.HasPrefix(rel, "internal/") && !apiInternal[rel] {
			return fs.SkipDir
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			if pkg.Name == "main" {
				continue
			}
			prefix := path.Join("hfstream", rel) + ": "
			for _, f := range pkg.Files {
				for _, l := range exportedLines(f) {
					lines = append(lines, prefix+l)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")
	const file = "testdata/api.txt"
	if *updateAPI {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported surface differs from %s (rerun with -update to record an intended change):\n%s",
			file, lineDiff(string(want), string(got)))
	}
}

// exportedLines renders one file's exported declarations.
func exportedLines(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Recv != nil && !ast.IsExported(recvType(d.Recv.List[0].Type)) {
				continue
			}
			out = append(out, render(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				out = append(out, specLines(d.Tok, spec)...)
			}
		}
	}
	return out
}

// specLines renders a type, const or var spec's exported names; a struct
// or interface type gets a head line plus one line per exported field or
// method, so a moved field reads as one removed and one added line.
func specLines(tok token.Token, spec ast.Spec) []string {
	var out []string
	switch s := spec.(type) {
	case *ast.TypeSpec:
		if !s.Name.IsExported() {
			return nil
		}
		var members []*ast.Field
		var kind string
		switch t := s.Type.(type) {
		case *ast.StructType:
			members, kind = t.Fields.List, "struct"
		case *ast.InterfaceType:
			members, kind = t.Methods.List, "interface"
		default:
			return []string{"type " + render(s)}
		}
		head := s.Name.Name
		if s.TypeParams != nil {
			head += render(s.TypeParams)
		}
		out = append(out, "type "+head+" "+kind)
		for _, m := range members {
			typ := render(m.Type)
			if len(m.Names) == 0 {
				if ast.IsExported(recvType(m.Type)) {
					out = append(out, s.Name.Name+"."+typ)
				}
				continue
			}
			if kind == "interface" {
				typ = strings.TrimPrefix(typ, "func")
			} else {
				typ = " " + typ
			}
			for _, n := range m.Names {
				if n.IsExported() {
					out = append(out, s.Name.Name+"."+n.Name+typ)
				}
			}
		}
	case *ast.ValueSpec:
		for i, n := range s.Names {
			if !n.IsExported() {
				continue
			}
			l := tok.String() + " " + n.Name
			if s.Type != nil {
				l += " " + render(s.Type)
			}
			if tok == token.CONST && i < len(s.Values) {
				l += " = " + render(s.Values[i])
			}
			out = append(out, l)
		}
	}
	return out
}

// recvType names the base type of a receiver or embedded field.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// render prints a node on one line.
func render(n any) string {
	var b strings.Builder
	if err := printer.Fprint(&b, token.NewFileSet(), n); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want+got, "\n") {
		if c := count[l]; c != 0 {
			sign := "-"
			if c < 0 {
				sign = "+"
			}
			b.WriteString(sign + " " + l + "\n")
			count[l] = 0
		}
	}
	return b.String()
}
