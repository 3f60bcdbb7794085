package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest element with at least p percent of the sample at or below it.
// It returns 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median returns the nearest-rank median of xs (unsorted), 0 when empty.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// ptail returns the highest percentile that still has tailBeyond samples
// beyond it, and its value. With too few samples it falls back to the
// median.
func ptail(asc []float64) (pct, value float64) {
	n := len(asc)
	if n <= 2*tailBeyond {
		return 50, percentile(asc, 50)
	}
	i := n - 1 - tailBeyond
	return 100 * float64(i+1) / float64(n), asc[i]
}

// iqrShare is the distance between the first and third quartile as a
// share of the median: the spread figure the benchmark contract uses.
func iqrShare(xs []float64) float64 {
	asc := sorted(xs)
	m := percentile(asc, 50)
	if m == 0 {
		return 0
	}
	return (percentile(asc, 75) - percentile(asc, 25)) / m
}

// segmentRates splits a lane's ops into consecutive segments of segLen
// ops and returns each segment's rate: the work its ops did over the time
// they took, counting only ops that did some work. With one unit of work
// per op that is throughput; with simulated cycles as work it is
// simulator speed over the ops that simulate. Reporting the median segment
// means one slow stretch moves one segment and not the result. A trailing
// partial segment is dropped, and so is a segment without work.
func segmentRates(work, took []float64, segLen int) []float64 {
	if segLen <= 0 {
		return nil
	}
	var rates []float64
	for i := 0; i+segLen <= len(took); i += segLen {
		var w, t float64
		for j := i; j < i+segLen; j++ {
			if work[j] > 0 {
				w += work[j]
				t += took[j]
			}
		}
		if t > 0 {
			rates = append(rates, w/t)
		}
	}
	return rates
}
