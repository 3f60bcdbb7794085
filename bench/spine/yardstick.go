package main

import (
	"sort"
	"time"
)

// The yardstick is a frozen CPU kernel whose duration defines one "yt".
// Host time on a shared box drifts by more than ten percent between
// back-to-back runs of one binary; the same runs divided by a kernel that
// was interleaved with them agree within a few percent, because the drift
// is the machine's clock and cache state, which the kernel sees too. It
// must never change: yardstick_test.go pins the iteration count and the
// checksum, so any edit that alters the work fails a test.

const (
	ytIters     = 5000 // xorshift steps per execution
	ytTableLen  = 512  // 512 x 8 B = the 4 KiB table
	ytHeapLen   = 64
	ytChecksum  = uint64(0x4bb1c1ed8f938fde)
	ytGapFactor = 12 // op time between executions, in yt: the kernel stays ~8% of client time
	ytWindow    = 5  // an op is divided by the median of this many latest samples
)

// yardstick runs the kernel once and returns its checksum.
func yardstick() uint64 {
	var table [ytTableLen]uint64
	var heap [ytHeapLen]uint64
	n := 0
	x := uint64(0x9e3779b97f4a7c15)
	var sum uint64
	for i := 0; i < ytIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(ytTableLen-1)] += x
		if n == ytHeapLen {
			sum += heapPop(&heap, &n)
		}
		heapPush(&heap, &n, x)
	}
	for n > 0 {
		sum = sum*31 + heapPop(&heap, &n)
	}
	for _, v := range table {
		sum ^= v
	}
	return sum
}

func heapPush(h *[ytHeapLen]uint64, n *int, v uint64) {
	i := *n
	h[i] = v
	*n++
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func heapPop(h *[ytHeapLen]uint64, n *int) uint64 {
	top := h[0]
	*n--
	h[0] = h[*n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < *n && h[l] < h[m] {
			m = l
		}
		if r < *n && h[r] < h[m] {
			m = r
		}
		if m == i {
			return top
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
}

// ytClock is one goroutine's yardstick: it runs the kernel between that
// goroutine's ops and turns a raw latency into yt.
type ytClock struct {
	recent  [ytWindow]float64 // latest samples, ns
	n       int
	est     float64 // median of recent: the current length of one yt, ns
	opTime  float64 // op time since the last execution, ns
	samples []float64
	bad     bool // a kernel execution returned the wrong checksum
}

func newYTClock() *ytClock {
	c := &ytClock{samples: make([]float64, 0, 4096)}
	for i := 0; i < ytWindow; i++ {
		c.tick()
	}
	return c
}

// tick executes the kernel once and refreshes the estimate.
func (c *ytClock) tick() {
	t0 := time.Now()
	sum := yardstick()
	d := float64(time.Since(t0))
	if sum != ytChecksum {
		c.bad = true
	}
	c.recent[c.n%ytWindow] = d
	c.n++
	c.samples = append(c.samples, d)
	k := c.n
	if k > ytWindow {
		k = ytWindow
	}
	var w [ytWindow]float64
	copy(w[:], c.recent[:k])
	sort.Float64s(w[:k])
	c.est = w[k/2]
	c.opTime = 0
}

// observe accounts one finished op and returns the yt length to divide it
// by. The kernel runs once the ops since its last execution add up to
// ytGapFactor yt: after every op when ops take milliseconds, after every
// few dozen when they take microseconds.
func (c *ytClock) observe(latNs float64) float64 {
	yt := c.est
	c.opTime += latNs
	if c.opTime >= ytGapFactor*c.est {
		c.tick()
	}
	return yt
}
