// Package stats provides counters, execution-time breakdowns and small
// numeric helpers shared by the simulator and the experiment harness.
//
// The breakdown buckets mirror the stacked bars in the paper's Figures 7,
// 10, 11 and 12: every core cycle is attributed to exactly one bucket, so
// the buckets always sum to the core's total cycle count.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Bucket identifies the machine region responsible for a core cycle.
type Bucket int

// Breakdown buckets, in the paper's stacking order (bottom to top).
const (
	// PreL2 covers everything before the L2 cache: useful issue, scoreboard
	// and FU stalls, L1 activity, and back-pressure from a full OzQ.
	PreL2 Bucket = iota
	// L2 covers cycles spent waiting on the local L2 array (ports,
	// occupancy, recirculation).
	L2
	// Bus covers shared-bus arbitration, snoop and data-transfer waits.
	Bus
	// L3 covers shared L3 cache access waits.
	L3
	// Mem covers main-memory access waits.
	Mem
	// PostL2 covers the post-L2 commit path: L1 fills and writeback of
	// completed instructions.
	PostL2

	// NumBuckets is the number of breakdown buckets.
	NumBuckets
)

// String returns the paper's label for the bucket.
func (b Bucket) String() string {
	switch b {
	case PreL2:
		return "PreL2"
	case L2:
		return "L2"
	case Bus:
		return "BUS"
	case L3:
		return "L3"
	case Mem:
		return "MEM"
	case PostL2:
		return "PostL2"
	default:
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
}

// Breakdown accumulates cycles per bucket for one core.
type Breakdown struct {
	Cycles [NumBuckets]uint64
}

// Add attributes n cycles to bucket b.
func (bd *Breakdown) Add(b Bucket, n uint64) { bd.Cycles[b] += n }

// Total returns the sum over all buckets.
func (bd *Breakdown) Total() uint64 {
	var t uint64
	for _, c := range bd.Cycles {
		t += c
	}
	return t
}

// Share returns bucket b's fraction of the total (0 if the total is 0).
func (bd *Breakdown) Share(b Bucket) float64 {
	t := bd.Total()
	if t == 0 {
		return 0
	}
	return float64(bd.Cycles[b]) / float64(t)
}

// Scaled returns the breakdown normalized so the total equals norm.
// It is used to plot bars normalized to a baseline design's runtime.
func (bd *Breakdown) Scaled(norm float64) [NumBuckets]float64 {
	var out [NumBuckets]float64
	t := bd.Total()
	if t == 0 {
		return out
	}
	for i, c := range bd.Cycles {
		out[i] = float64(c) / float64(t) * norm
	}
	return out
}

// String renders the breakdown as "PreL2=… L2=… BUS=… L3=… MEM=… PostL2=…".
func (bd *Breakdown) String() string {
	parts := make([]string, 0, NumBuckets)
	for b := Bucket(0); b < NumBuckets; b++ {
		parts = append(parts, fmt.Sprintf("%s=%d", b, bd.Cycles[b]))
	}
	return strings.Join(parts, " ")
}

// HistBuckets is the number of Hist buckets: 0, 1, 2-3, 4-7, ... up to a
// final bucket absorbing everything >= 2^15.
const HistBuckets = 17

// Hist is a power-of-two-bucket histogram of small non-negative values
// (queue occupancies, burst lengths). Bucket 0 counts zeros and bucket
// i >= 1 counts values in [2^(i-1), 2^i).
type Hist struct {
	Counts [HistBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Counts[b]++
}

// ObserveN records the same value n times, exactly as n Observe calls
// would (the simulator's fast-forward path observes a frozen occupancy
// once per skipped cycle).
func (h *Hist) ObserveN(v, n uint64) {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Counts[b] += n
}

// Total returns the number of observations.
func (h *Hist) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// HistLabel names bucket i ("0", "1", "2-3", ..., ">=32768").
func HistLabel(i int) string {
	switch {
	case i <= 1:
		return fmt.Sprintf("%d", i)
	case i == HistBuckets-1:
		return fmt.Sprintf(">=%d", 1<<(i-1))
	default:
		return fmt.Sprintf("%d-%d", 1<<(i-1), 1<<i-1)
	}
}

// GeomeanErr returns the geometric mean of xs. It returns 0 for an empty
// slice and an error on non-positive inputs, which always indicate a bug
// in the caller's normalization (e.g. a zero-cycle baseline run).
func GeomeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("stats: geomean input %d is non-positive (%v)", i, x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Geomean is GeomeanErr for callers that cannot fail: a degenerate input
// yields NaN (rendered as such in tables) instead of aborting the whole
// regeneration.
func Geomean(xs []float64) float64 {
	g, err := GeomeanErr(xs)
	if err != nil {
		return math.NaN()
	}
	return g
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
