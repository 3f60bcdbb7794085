package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name string
		asc  []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 95, 7},
		{"median of ten is the fifth", ten, 50, 5},
		{"p95 of ten is the last", ten, 95, 10},
		{"p90 of ten is the ninth", ten, 90, 9},
		{"p0 clamps to the first", ten, 0, 1},
		{"p100 is the last", ten, 100, 10},
		{"median of three", []float64{1, 5, 9}, 50, 5},
	}
	for _, c := range cases {
		if got := percentile(c.asc, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.asc, c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median sorts its input: got %v, want 5", got)
	}
}

func TestPtail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5, 50, 3},      // too few samples: the median
		{20, 50, 10},    // still no percentile with ten beyond it and ten below
		{100, 90, 90},   // ten samples lie beyond the 90th
		{1000, 99, 990}, // and beyond the 99th of a thousand
		{200000, 99.995, 199990},
	}
	for _, c := range cases {
		pct, val := ptail(seq(c.n))
		if math.Abs(pct-c.wantPct) > 1e-9 || val != c.wantVal {
			t.Errorf("ptail of 1..%d = p%v %v, want p%v %v", c.n, pct, val, c.wantPct, c.wantVal)
		}
	}
}

func TestIQRShare(t *testing.T) {
	// Quartiles of 1..8 by nearest rank are 2 and 6, the median 4.
	if got := iqrShare([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 1 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if got := iqrShare([]float64{0, 0, 0}); got != 0 {
		t.Errorf("iqrShare of zeros = %v, want 0", got)
	}
}

func TestSegmentRates(t *testing.T) {
	ones := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1
		}
		return xs
	}
	cases := []struct {
		name   string
		work   []float64
		took   []float64
		segLen int
		want   []float64
	}{
		{"two even segments", ones(4), []float64{1, 1, 2, 2}, 2, []float64{1, 0.5}},
		{"a trailing partial segment is dropped", ones(5), []float64{1, 1, 2, 2, 100}, 2, []float64{1, 0.5}},
		{"ops without work leave numerator and denominator", []float64{10, 0, 30, 0}, []float64{1, 50, 3, 50}, 4, []float64{10}},
		{"a segment without work is dropped", []float64{0, 0, 6, 0}, []float64{1, 1, 2, 1}, 2, []float64{3}},
		{"no segment length", ones(2), ones(2), 0, nil},
	}
	for _, c := range cases {
		got := segmentRates(c.work, c.took, c.segLen)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
	// The median segment ignores one slow stretch.
	took := []float64{1, 1, 1, 1, 9, 9, 1, 1, 1, 1}
	if got := median(segmentRates(ones(10), took, 2)); got != 1 {
		t.Errorf("median segment rate = %v, want 1", got)
	}
}
