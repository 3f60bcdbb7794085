package dswp_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"hfstream/internal/dswp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// pinShape is one way of compiling a loop: the single-threaded baseline,
// a chain of n stages, or PS-DSWP with n workers.
type pinShape struct {
	kind string // "single", "chain" or "workers"
	n    int
}

func (s pinShape) String() string {
	if s.kind == "single" {
		return s.kind
	}
	return fmt.Sprintf("%s%d", s.kind, s.n)
}

func (s pinShape) compile(l *ir.Loop) ([]*isa.Program, error) {
	switch s.kind {
	case "single":
		p, err := dswp.Single(l)
		if err != nil {
			return nil, err
		}
		return []*isa.Program{p}, nil
	case "chain":
		res, err := dswp.PartitionN(l, s.n)
		if err != nil {
			return nil, err
		}
		return res.Threads, nil
	default:
		res, err := dswp.PartitionParallel(l, s.n)
		if err != nil {
			return nil, err
		}
		return res.Threads, nil
	}
}

func pinShapes(chains, workers int) []pinShape {
	out := []pinShape{{kind: "single"}}
	for n := 2; n <= chains; n++ {
		out = append(out, pinShape{"chain", n})
	}
	for w := 2; w <= workers; w++ {
		out = append(out, pinShape{"workers", w})
	}
	return out
}

// hashPrograms folds every thread's name and every field of every
// instruction into h. Program.String omits Comm, so it cannot stand in.
func hashPrograms(h hash.Hash, progs []*isa.Program) {
	for _, p := range progs {
		fmt.Fprintf(h, "%s %d\n", p.Name, len(p.Instrs))
		for _, in := range p.Instrs {
			fmt.Fprintf(h, "%d %d %d %d %d %d %t\n", in.Op, in.Rd, in.Ra, in.Rb, in.Imm, in.Q, in.Comm)
		}
	}
}

// programPins renders one line per IR kernel and shape, holding the
// sha256 of its thread programs or the partitioner's error, then one
// line per seeded random loop, whose digest covers every shape.
func programPins() []string {
	var lines []string
	for _, b := range irKernels() {
		for _, s := range pinShapes(8, 7) {
			progs, err := s.compile(b.Loop)
			if err != nil {
				lines = append(lines, fmt.Sprintf("%s %s error: %v", b.Name, s, err))
				continue
			}
			h := sha256.New()
			hashPrograms(h, progs)
			lines = append(lines, fmt.Sprintf("%s %s %x", b.Name, s, h.Sum(nil)))
		}
	}
	for seed := 0; seed < 200; seed++ {
		l, _, _ := dswp.RandomLoop(uint32(seed), 40)
		h := sha256.New()
		for _, s := range pinShapes(5, 4) {
			progs, err := s.compile(l)
			if err != nil {
				fmt.Fprintf(h, "%s error: %v\n", s, err)
				continue
			}
			fmt.Fprintf(h, "%s\n", s)
			hashPrograms(h, progs)
		}
		lines = append(lines, fmt.Sprintf("rand%d %x", seed, h.Sum(nil)))
	}
	return lines
}

// The generated code of every IR kernel in every shape, and of 200
// seeded random loops, as it was when testdata/programs.txt was written,
// before the thread generators shared one emitter. Like cuts.json it is
// never regenerated: a compiler change that moves one instruction field
// of one thread must explain itself here.
func TestGeneratedProgramsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/programs.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := programPins()
	if len(got) != len(want) {
		t.Fatalf("%d pinned lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
