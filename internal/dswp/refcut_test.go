//go:build refcut

package dswp_test

// This file builds only with -tags refcut, as `make refcut-check` builds it:
// it reruns the exhaustive reference cut search, which takes about 15 s, on
// every case of testdata/refcuts.txt, the file the default tests read its
// answers from instead.

import (
	"flag"
	"os"
	"strings"
	"testing"

	"hfstream/internal/dswp"
	"hfstream/internal/ir"
)

var updateRefCuts = flag.Bool("update", false, "write testdata/refcuts.txt from the reference search")

const refCutsHeader = `# The exhaustive reference cut search's answer (PartitionNRef) per case,
# one "<case> <stages> <cut>" line each. The cases are refCases' in
# cut_test.go: every IR kernel at 2..8 stages, then seeded random loops at
# 2..5 stages. The cut is the first free SCC of stages 1..n-1, or "none"
# when the loop has no partition of that many stages. Written by
#   go test -tags refcut -run TestReferenceCutsPinned ./internal/dswp -update
# and rechecked against the reference by make refcut-check.
`

func TestReferenceCutsPinned(t *testing.T) {
	if !*updateRefCuts {
		checkRefCuts(t, dswp.PartitionNRef)
		return
	}
	var b strings.Builder
	b.WriteString(refCutsHeader)
	refCases(func(name string, l *ir.Loop, n int) {
		_, cuts, err := dswp.PartitionNRef(l, n)
		b.WriteString(refLine(name, n, cuts, err) + "\n")
	})
	if err := os.WriteFile(refCutsFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
