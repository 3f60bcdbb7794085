package hfstream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllowed lists struct fields under internal/ that may stay without
// a read, keyed "<dir>.<Type>.<field>". Every entry must give its reason.
var writeOnlyAllowed = map[string]string{}

// TestNoWriteOnlyState keeps model state that nothing reads out of the tree.
// Every struct field declared in a non-test file under internal/ (bar the
// json-tagged ones, which encoding reads) must be read, as a selector of its
// name, in some non-test .go file of the module, bench/spine included. A
// selector is a read unless it is the whole left side of =, op=, ++ or --,
// or the first argument of append. Names are matched without type
// checking, so a dead field that shares its name with a read one goes
// unseen.
func TestNoWriteOnlyState(t *testing.T) {
	read := map[string]bool{}
	var declared []string // "<dir>.<Type>.<field>"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		selectorReads(f, read)
		if dir := path.Dir(filepath.ToSlash(file)); strings.HasPrefix(dir, "internal/") {
			structFields(f, func(owner, field string) {
				declared = append(declared, dir+"."+owner+"."+field)
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, key := range declared {
		if !read[key[strings.LastIndexByte(key, '.')+1:]] && writeOnlyAllowed[key] == "" {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is written but never read outside tests: delete it, or list it in writeOnlyAllowed with a reason", key)
	}
	for key, reason := range writeOnlyAllowed {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("writeOnlyAllowed[%q] gives no reason", key)
		}
	}
}

// selectorReads adds the name of every selector that f reads to read.
func selectorReads(f *ast.File, read map[string]bool) {
	written := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[s] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, e := range n.Lhs {
					mark(e)
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				mark(n.Args[0])
			}
		case *ast.SelectorExpr:
			if !written[n] {
				read[n.Sel.Name] = true
			}
		}
		return true
	})
}

// structFields calls visit for every named, untagged-by-json field of every
// struct type in f, with the enclosing type's name ("struct" when anonymous).
func structFields(f *ast.File, visit func(owner, field string)) {
	var walk func(owner string) func(ast.Node) bool
	walk = func(owner string) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				ast.Inspect(n.Type, walk(n.Name.Name))
				return false
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if fld.Tag != nil && strings.Contains(fld.Tag.Value, "json:") {
						continue
					}
					for _, id := range fld.Names {
						if id.Name != "_" {
							visit(owner, id.Name)
						}
					}
				}
			}
			return true
		}
	}
	ast.Inspect(f, walk("struct"))
}
