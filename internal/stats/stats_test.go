package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBreakdownSums(t *testing.T) {
	var bd Breakdown
	bd.Add(PreL2, 10)
	bd.Add(Bus, 5)
	bd.Add(Mem, 85)
	if bd.Total() != 100 {
		t.Fatalf("Total = %d", bd.Total())
	}
	if got := bd.Share(Mem); got != 0.85 {
		t.Errorf("Share(Mem) = %v", got)
	}
	scaled := bd.Scaled(2.0)
	sum := 0.0
	for _, v := range scaled {
		sum += v
	}
	if math.Abs(sum-2.0) > 1e-9 {
		t.Errorf("Scaled parts sum to %v, want 2.0", sum)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	var bd Breakdown
	if bd.Share(PreL2) != 0 {
		t.Error("empty breakdown share should be 0")
	}
	if s := bd.Scaled(1.0); s != [NumBuckets]float64{} {
		t.Error("empty breakdown scaled should be zero")
	}
}

func TestBucketNames(t *testing.T) {
	want := []string{"PreL2", "L2", "BUS", "L3", "MEM", "PostL2"}
	for b := Bucket(0); b < NumBuckets; b++ {
		if b.String() != want[b] {
			t.Errorf("bucket %d = %q, want %q", b, b.String(), want[b])
		}
	}
}

func TestBreakdownString(t *testing.T) {
	var bd Breakdown
	bd.Add(L2, 3)
	s := bd.String()
	if !strings.Contains(s, "L2=3") || !strings.Contains(s, "MEM=0") {
		t.Errorf("String() = %q", s)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v", g)
	}
	// Property: geomean of a constant slice is the constant.
	f := func(x float64, n uint8) bool {
		x = math.Abs(x)
		if x < 1e-6 || x > 1e6 || n == 0 {
			return true
		}
		xs := make([]float64, int(n%16)+1)
		for i := range xs {
			xs[i] = x
		}
		return math.Abs(Geomean(xs)-x) < x*1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Property: geomean lies between min and max.
	g := func(a, b float64) bool {
		a, b = math.Abs(a)+1e-3, math.Abs(b)+1e-3
		if a > 1e6 || b > 1e6 {
			return true
		}
		gm := Geomean([]float64{a, b})
		lo, hi := math.Min(a, b), math.Max(a, b)
		return gm >= lo-1e-9 && gm <= hi+1e-9
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestGeomeanErr(t *testing.T) {
	if g, err := GeomeanErr([]float64{2, 8}); err != nil || math.Abs(g-4) > 1e-9 {
		t.Errorf("GeomeanErr(2,8) = %v, %v", g, err)
	}
	if g, err := GeomeanErr(nil); err != nil || g != 0 {
		t.Errorf("GeomeanErr(nil) = %v, %v", g, err)
	}
	for _, bad := range [][]float64{{1, 0}, {-2}, {1, math.NaN()}} {
		if _, err := GeomeanErr(bad); err == nil {
			t.Errorf("GeomeanErr(%v): no error", bad)
		}
	}
}

// TestGeomeanNonPositiveIsNaN: the infallible wrapper degrades to NaN so a
// single degenerate row cannot crash a whole figure regeneration.
func TestGeomeanNonPositiveIsNaN(t *testing.T) {
	if g := Geomean([]float64{1, 0}); !math.IsNaN(g) {
		t.Errorf("Geomean(1,0) = %v, want NaN", g)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "B")
	tb.AddRow("x", "y")
	tb.AddRowf(1.5, 2)
	tb.AddRow("only-one")
	s := tb.String()
	for _, want := range []string{"Title", "A", "B", "x", "1.500", "2", "only-one", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Errorf("got %d lines, want 6:\n%s", len(lines), s)
	}
}
