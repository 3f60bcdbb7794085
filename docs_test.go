package hfstream

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose commands and paths the docs tests hold
// to the tree. The Makefile and ci.yml are code throughout; in the Markdown
// files only fenced blocks and backticked spans are.
var docFiles = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "RESILIENCE.md", "serve/API.md",
	".claude/skills/verify/SKILL.md", "Makefile", ".github/workflows/ci.yml",
}

// docCode is one document's code: its backticked spans (whitespace
// collapsed, so a span may wrap) and its code lines (fenced blocks, or
// every line of a Makefile or workflow, continuations joined).
type docCode struct {
	file  string
	spans []string
	lines []string
}

var spanRE = regexp.MustCompile("`([^`]+)`")

func readDocs(t *testing.T) []docCode {
	t.Helper()
	var docs []docCode
	for _, name := range docFiles {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if name == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		d := docCode{file: name}
		var prose, code []string
		if strings.HasSuffix(name, ".md") {
			fenced := false
			for _, l := range strings.Split(text, "\n") {
				switch {
				case strings.HasPrefix(strings.TrimSpace(l), "```"):
					fenced = !fenced
				case fenced:
					code = append(code, l)
				default:
					prose = append(prose, l)
				}
			}
		} else {
			prose = strings.Split(text, "\n")
			code = prose
		}
		for _, m := range spanRE.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
			d.spans = append(d.spans, strings.Join(strings.Fields(m[1]), " "))
		}
		d.lines = strings.Split(strings.ReplaceAll(strings.Join(code, "\n"), "\\\n", " "), "\n")
		docs = append(docs, d)
	}
	return docs
}

// commands splits a piece of shell into simple commands of words: quotes
// are removed, a '#' word starts a comment, and an unquoted operator
// (&&, ||, ;, |, &, a redirection) ends a command.
func commands(s string) [][]string {
	var out [][]string
	var cur []string
	var word strings.Builder
	inWord := false
	flush := func() {
		if inWord {
			cur = append(cur, word.String())
			word.Reset()
			inWord = false
		}
	}
	end := func() {
		flush()
		if len(cur) > 0 {
			out = append(out, cur)
		}
		cur = nil
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' || c == '"':
			j := strings.IndexByte(s[i+1:], c)
			if j < 0 {
				j = len(s) - i - 1
			}
			word.WriteString(s[i+1 : i+1+j])
			inWord = true
			i += j + 1
		case c == '#' && !inWord:
			end()
			return out
		case strings.IndexByte("&|;<>", c) >= 0:
			end()
			// A redirection's target is not a word of the command.
			if c == '>' || c == '<' {
				for i+1 < len(s) && strings.IndexByte("&> ", s[i+1]) >= 0 {
					i++
				}
				for i+1 < len(s) && s[i+1] != ' ' {
					i++
				}
			}
		case c == ' ' || c == '\t':
			flush()
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	end()
	return out
}

// docCommands is every simple command in the documents' code, without
// the words that only lead into it: a workflow step's "- run:" and
// environment assignments.
func docCommands(t *testing.T) map[string][][]string {
	out := map[string][][]string{}
	for _, d := range readDocs(t) {
		for _, s := range append(append([]string(nil), d.spans...), d.lines...) {
			for _, c := range commands(s) {
				for len(c) > 0 && (c[0] == "-" || c[0] == "run:" ||
					strings.Contains(c[0], "=") && !strings.HasPrefix(c[0], "-")) {
					c = c[1:]
				}
				if len(c) > 0 {
					out[d.file] = append(out[d.file], c)
				}
			}
		}
	}
	return out
}

// commitPath is a removed file written commit-qualified, e.g.
// 116731a:BENCH_PR6.json: the file is named at the last commit holding it.
var commitPath = regexp.MustCompile(`^[0-9a-f]{7,40}:`)

// lineRef is a trailing line reference on a path (api.go:363, :26-48).
var lineRef = regexp.MustCompile(`:[0-9]+(-[0-9]+)?$`)

var fileExts = map[string]bool{
	".go": true, ".md": true, ".json": true, ".txt": true, ".yml": true,
	".yaml": true, ".sh": true, ".mod": true, ".csv": true,
}

// walkTree calls fn with the slash-separated path of every file and
// directory of the tree, outside .git and the benchmark's build directory.
func walkTree(t *testing.T, fn func(p string, d fs.DirEntry)) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return fs.SkipDir
		}
		fn(filepath.ToSlash(p), d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsPathsExist: every backticked span that names a repository path
// names one that exists. A span is a path when it is one word that ends
// in a file extension, or contains a slash and starts at a top-level
// entry of the tree. A path may be relative to any directory
// (testdata/programs.txt is internal/dswp's), so it exists when some file
// or directory of the tree ends with it.
func TestDocsPathsExist(t *testing.T) {
	exists := map[string]bool{}
	walkTree(t, func(p string, _ fs.DirEntry) {
		for p != "." {
			exists[p] = true
			i := strings.IndexByte(p, '/')
			if i < 0 {
				break
			}
			p = p[i+1:]
		}
	})
	for _, d := range readDocs(t) {
		for _, s := range d.spans {
			if strings.ContainsAny(s, " *<>{}$()=,|'\"") || strings.Contains(s, "...") ||
				strings.Contains(s, "://") || strings.HasPrefix(s, "/") || strings.HasPrefix(s, "-") ||
				commitPath.MatchString(s) {
				continue
			}
			p := lineRef.ReplaceAllString(strings.SplitN(s, "#", 2)[0], "")
			p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
			top, _, nested := strings.Cut(p, "/")
			_, err := os.Stat(top)
			if ext := path.Ext(p); !fileExts[ext] {
				// A Go symbol on a package path (internal/exp.Catalog)
				// names the package's directory.
				if !nested || err != nil {
					continue
				}
				p = strings.TrimSuffix(p, ext)
			}
			if !exists[p] {
				t.Errorf("%s: `%s` names no file or directory of the tree "+
					"(write a removed file as <commit>:<path>)", d.file, s)
			}
		}
	}
}

// headerTarget is a target the Makefile's header comment lists.
var headerTarget = regexp.MustCompile(`^#\s+make ([a-z0-9-]+)`)

// TestDocsMakeTargetsExist: every make command in the documents, and
// every target the Makefile's header lists, names a Makefile target.
func TestDocsMakeTargetsExist(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	lines := strings.Split(string(raw), "\n")
	for _, l := range lines {
		if names, _, ok := strings.Cut(l, ":"); ok && !strings.HasPrefix(l, "\t") &&
			!strings.HasPrefix(l, "#") && !strings.Contains(l, ":=") && !strings.ContainsAny(names, "=$") {
			for _, n := range strings.Fields(names) {
				targets[n] = true
			}
		}
	}
	for _, l := range lines {
		if m := headerTarget.FindStringSubmatch(l); m != nil && !targets[m[1]] {
			t.Errorf("Makefile header lists %q, which is no target", m[1])
		}
	}
	for file, cmds := range docCommands(t) {
		for _, c := range cmds {
			if c[0] != "make" && c[0] != "$(MAKE)" {
				continue
			}
			for _, w := range c[1:] {
				if !strings.HasPrefix(w, "-") && !strings.ContainsAny(w, "=$()") && !targets[w] {
					t.Errorf("%s: `%s` names no Makefile target %q", file, strings.Join(c, " "), w)
				}
			}
		}
	}
}

// testFunc names a function go test runs or selects with -run.
var testFunc = regexp.MustCompile(`^(Test|Example|Benchmark|Fuzz)`)

// TestDocsTestPatternsMatch: every go test command with a -run pattern
// selects at least one Test, Example, Benchmark or Fuzz function in each
// package it lists (in some package under a ./... pattern), so a renamed
// or moved test cannot leave a documented command or a CI step running
// nothing. The functions are read from the tree's _test.go files.
func TestDocsTestPatternsMatch(t *testing.T) {
	funcs := map[string][]string{} // directory -> its test functions
	walkTree(t, func(p string, d fs.DirEntry) {
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return
		}
		af, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range af.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
				funcs[path.Dir(p)] = append(funcs[path.Dir(p)], fd.Name.Name)
			}
		}
	})
	selects := func(re *regexp.Regexp, pkg string) bool {
		dir, recursive := strings.CutSuffix(pkg, "...")
		dir = path.Clean(dir)
		for d, names := range funcs {
			if d != dir && !(recursive && (dir == "." || strings.HasPrefix(d, dir+"/"))) {
				continue
			}
			for _, n := range names {
				if re.MatchString(n) {
					return true
				}
			}
		}
		return false
	}
	checked := 0
	for file, cmds := range docCommands(t) {
		for _, c := range cmds {
			if len(c) < 2 || c[0] != "go" && c[0] != "$(GO)" || c[1] != "test" {
				continue
			}
			var run string
			var pkgs []string
			for i, w := range c[2:] {
				switch {
				case w == "-run" && i+3 < len(c):
					run = c[i+3]
				case strings.HasPrefix(w, "-run="):
					run = strings.TrimPrefix(w, "-run=")
				case w == "." || strings.HasPrefix(w, "./"):
					pkgs = append(pkgs, w)
				}
			}
			if run == "" || run == "^$" || strings.Contains(run, "$(") {
				continue
			}
			re, err := regexp.Compile(topLevel(run))
			if err != nil {
				t.Errorf("%s: `%s`: bad -run pattern: %v", file, strings.Join(c, " "), err)
				continue
			}
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			for _, p := range pkgs {
				if !selects(re, p) {
					t.Errorf("%s: `%s` selects no test in %s", file, strings.Join(c, " "), p)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run command to check")
	}
}

// topLevel is the part of a -run pattern that go test matches against
// top-level names: everything before the first slash outside brackets
// and parentheses.
func topLevel(run string) string {
	depth := 0
	for i, c := range run {
		switch c {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '/':
			if depth == 0 {
				return run[:i]
			}
		}
	}
	return run
}

// Size budgets: EXPERIMENTS.md keeps its results and points at the
// BENCH_PR*.json files for the measurement history, and every CHANGES.md
// line after the budget marker stays a one-line summary.
const (
	experimentsBudget = 35 << 10
	changesLineBudget = 600
	changesMarker     = "<!-- Each line below: at most 600 bytes. -->"
)

func TestDocsBudgets(t *testing.T) {
	if fi, err := os.Stat("EXPERIMENTS.md"); err != nil {
		t.Fatal(err)
	} else if fi.Size() > experimentsBudget {
		t.Errorf("EXPERIMENTS.md is %d bytes, over its %d-byte budget", fi.Size(), experimentsBudget)
	}
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := bytes.Cut(raw, []byte(changesMarker))
	if !ok {
		t.Fatalf("CHANGES.md has no budget marker %q", changesMarker)
	}
	for i, l := range bytes.Split(after, []byte("\n")) {
		if len(l) > changesLineBudget {
			t.Errorf("CHANGES.md line %d after the marker is %d bytes, over %d", i, len(l), changesLineBudget)
		}
	}
}
