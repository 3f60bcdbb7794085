package ir

import (
	"testing"

	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

func TestValidateRequiresExit(t *testing.T) {
	l := NewLoop("t")
	l.Counter(0, 1)
	if err := l.Validate(); err == nil {
		t.Error("loop without exit accepted")
	}
}

func TestValidateGood(t *testing.T) {
	l := NewLoop("t")
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, V(idx), C(9))
	l.SetExit(cond)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTopologicalOrder(t *testing.T) {
	l := NewLoop("t")
	a := l.Op(isa.AddI, C(0), C(1))
	b := l.Op(isa.AddI, V(a), C(1))
	// Force a forward non-carried reference: a reads b.
	a.Args[0] = V(b)
	l.SetExit(b)
	if err := l.Validate(); err == nil {
		t.Error("forward non-carried reference accepted")
	}
}

// Passes index per-node tables by ID, so a body whose IDs are not its
// positions (here, one with its first node cut off) is rejected.
func TestValidateIDsArePositions(t *testing.T) {
	l := NewLoop("t")
	l.Counter(0, 1)
	c := l.Counter(0, 1)
	l.SetExit(c)
	l.Body = l.Body[1:]
	if err := l.Validate(); err == nil {
		t.Error("node 1 at body position 0 accepted")
	}
}

func TestValidateMemNeedsRegion(t *testing.T) {
	l := NewLoop("t")
	n := l.Op(isa.Ld, C(0x1000))
	l.SetExit(n)
	if err := l.Validate(); err == nil {
		t.Error("load without region accepted")
	}
}

func TestValidateForeignNode(t *testing.T) {
	l1 := NewLoop("a")
	x := l1.Counter(0, 1)
	l2 := NewLoop("b")
	y := l2.Op(isa.AddI, V(x), C(1))
	l2.SetExit(y)
	if err := l2.Validate(); err == nil {
		t.Error("foreign node reference accepted")
	}
}

func TestCarriedForwardReferenceAllowed(t *testing.T) {
	// Mutually recursive pair via a carried edge (the adpcm step-size
	// pattern) must validate.
	l := NewLoop("t")
	sum := l.Op(isa.Add, C(1), C(0)) // patched below
	mask := l.Op(isa.AndI, V(sum), C(255))
	sum.Args[1] = Carried(mask, 16)
	cond := l.Op(isa.CmpNE, V(mask), C(0))
	l.SetExit(cond)
	if err := l.Validate(); err != nil {
		t.Fatalf("carried forward reference rejected: %v", err)
	}
}

func TestAccShape(t *testing.T) {
	l := NewLoop("t")
	x := l.Counter(0, 1)
	acc := l.Acc(isa.Add, V(x), 5)
	if len(acc.Args) != 2 || !acc.Args[1].Carried || acc.Args[1].Node != acc {
		t.Error("Acc should carry itself")
	}
	if acc.Args[1].Init != 5 {
		t.Error("Acc init lost")
	}
}

func TestWeights(t *testing.T) {
	l := NewLoop("t")
	r := mem.Region{Name: "r", Base: 0, Size: 128}
	ld := l.Load(&r, C(0), 0)
	st := l.Store(&r, C(0), 0, V(ld))
	mul := l.Op(isa.Mul, V(ld), V(ld))
	if ld.Weight() <= st.Weight() {
		t.Error("loads should outweigh stores")
	}
	if mul.Weight() != isa.Mul.Latency() {
		t.Error("ALU weight should equal latency")
	}
}

func TestPin(t *testing.T) {
	l := NewLoop("t")
	n := l.Counter(0, 1)
	l.Pin(n, 1)
	if l.Pins[n.ID] != 1 {
		t.Error("pin not recorded")
	}
}
