package main

import (
	"testing"

	"hfstream"
)

// TestRole: a core is labelled from the design's pipeline shape, not
// from its index alone — the last stage of a chain is no producer and
// an MPMC worker no consumer.
func TestRole(t *testing.T) {
	cases := []struct {
		design string
		cores  int
		want   []string
	}{
		{"SYNCOPTI", 1, []string{"single"}},
		{"MPMC", 1, []string{"single"}},
		{"SYNCOPTI", 2, []string{"producer", "consumer"}},
		{"HEAVYWT_3CORE", 3, []string{"stage 1/3", "stage 2/3", "stage 3/3"}},
		{"MPMC", 4, []string{"worker 0", "worker 1", "worker 2", "merger"}},
		{"MPMC_Q64_3CORE", 3, []string{"worker 0", "worker 1", "merger"}},
	}
	for _, c := range cases {
		d, err := hfstream.DesignByName(c.design)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range c.want {
			if got := role(d, i, c.cores); got != want {
				t.Errorf("%s core %d of %d: role %q, want %q", c.design, i, c.cores, got, want)
			}
		}
	}
}

// A -tracecap the ring cannot hold is refused before the run; at 1<<62
// NewBuffer used to panic in makeslice.
func TestCheckTraceCap(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{
		{0, true}, {1, true}, {4000000, true}, {1 << 24, true},
		{-1, false}, {1<<24 + 1, false}, {4611686018427387904, false},
	} {
		if err := checkTraceCap(c.n); (err == nil) != c.ok {
			t.Errorf("checkTraceCap(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
}
