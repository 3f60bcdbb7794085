package dswp

import "math"

// The stage cost model: a stage's estimated per-iteration time is the
// larger of its issue-bandwidth bound (latency-weighted work over an
// effective width) and its dependence-chain bound, plus a COMM-OP cost
// per queue endpoint — one per distinct value it imports, one per
// distinct (value, carried, consuming stage) it exports. Replicated
// control-slice nodes count as work in every stage and never communicate.
// A loop-carried value is charged to its producer's stage only: the
// consumer's import count skips carried operands.
const (
	issueWidth = 3.0 // effective sustained issue on the in-order core
	commCost   = 1.5
)

// segCost is the cost of one candidate stage, a run of consecutive free
// SCCs. Everything but the export count depends on the run alone; the
// export count also depends on how the later cuts group the consumers.
type segCost struct {
	base float64 // max(work/issueWidth, longest dependence chain)
	comm int     // imports + exports; -1 until measured
}

func (c segCost) time() float64 { return c.base + commCost*float64(c.comm) }

// bestCut returns the cut minimizing the estimated bottleneck-stage time,
// the first such in lexicographic order, or nil when pins exclude every
// cut. Stage 0 is never empty.
//
// The search is exact but not exhaustive. Counting a stage's exports as
// its distinct exported (value, carried) pairs — each reaches at least
// one consuming stage — bounds its cost from below using the run alone,
// so a suffix table of the least bottleneck any split of free[p:] into
// the remaining stages could reach prunes every prefix that cannot beat
// the best cut scored so far. Cuts are walked in lexicographic order and
// replaced only by a strictly better score, and a pruned subtree holds no
// better one, so the answer is the one full enumeration gives.
func (sp *cutSpace) bestCut() []int {
	l, n, m := sp.l, sp.n, len(sp.free)
	body := len(l.Body)

	// pin[i] is the stage free SCC i is pinned to, -1 for none.
	pin := make([]int, m)
	var pinned []int
	for i, comp := range sp.free {
		pin[i] = -1
		for _, id := range comp {
			st, ok := l.Pins[id]
			if !ok {
				continue
			}
			if st < 0 || st >= n || (pin[i] >= 0 && pin[i] != st) {
				return nil
			}
			if pin[i] < 0 {
				pinned = append(pinned, i)
			}
			pin[i] = st
		}
	}
	for _, comp := range sp.forced {
		for _, id := range comp {
			if st, ok := l.Pins[id]; ok && st != 0 {
				return nil
			}
		}
	}

	// A dense view of the loop by node ID: which free SCC a node
	// belongs to (m for the forced ones, everywhere for the replicated
	// slice), its weight, and its non-constant operands.
	const everywhere = -1
	where := make([]int, body)
	for p := range where {
		where[p] = everywhere
	}
	for i, comp := range sp.free {
		for _, id := range comp {
			where[id] = i
		}
	}
	for _, comp := range sp.forced {
		for _, id := range comp {
			where[id] = m
		}
	}
	type use struct {
		src     int
		carried bool
	}
	weight := make([]int, body)
	usesAt := make([]int, body+1) // uses[usesAt[p]:usesAt[p+1]] are p's operands
	operands := 0
	for _, nd := range l.Body {
		operands += len(nd.Args)
	}
	uses := make([]use, 0, operands)
	for p, nd := range l.Body {
		if sp.replicable && sp.slice[nd.ID] {
			where[p] = everywhere
		}
		weight[p] = nd.Weight()
		for _, a := range nd.Args {
			if a.Node != nil {
				uses = append(uses, use{src: a.Node.ID, carried: a.Carried})
			}
		}
		usesAt[p+1] = len(uses)
	}

	// seen[(2*src+carried)*n+dest] holds the tick of the measurement that
	// last counted that queue endpoint, so no pass has to clear it.
	seen := make([]int, 2*body*n)
	tick := 0
	count := func(u use, dest int) bool {
		k := 2 * u.src
		if u.carried {
			k++
		}
		k = k*n + dest
		if seen[k] == tick {
			return false
		}
		seen[k] = tick
		return true
	}

	// measure costs the stage made of free[a:b], plus the forced SCCs when
	// first, with exports at their lower bound.
	depth := make([]int, body)
	measure := func(a, b int, first bool) segCost {
		tick++
		clear(depth)
		inside := func(c int) bool { return (c >= a && c < b) || (first && c == m) }
		work, chain, comm := 0, 0, 0
		for p, c := range where {
			ops := uses[usesAt[p]:usesAt[p+1]]
			if c != everywhere && !inside(c) {
				for _, u := range ops {
					if sc := where[u.src]; sc != everywhere && inside(sc) && count(u, 0) {
						comm++
					}
				}
				continue
			}
			work += weight[p]
			d := 0
			for _, u := range ops {
				if u.carried {
					continue
				}
				d = max(d, depth[u.src])
				if sc := where[u.src]; c != everywhere && sc != everywhere && !inside(sc) && count(u, 0) {
					comm++
				}
			}
			depth[p] = d + weight[p]
			chain = max(chain, depth[p])
		}
		return segCost{base: max(float64(work)/issueWidth, float64(chain)), comm: comm}
	}

	// Segment costs are measured on first use, so a call pays only for
	// the runs its stage count can reach: by end for stage 0, by start for
	// the last stage, by both for the stages between.
	stride := m + 1
	size := 2 * stride
	if n > 2 {
		size += stride * stride
	}
	memo := make([]segCost, size)
	for i := range memo {
		memo[i].comm = -1
	}
	seg := func(s, a, b int) segCost {
		var c *segCost
		switch s {
		case 0:
			c = &memo[b]
		case n - 1:
			c = &memo[stride+a]
		default:
			c = &memo[(2+a)*stride+b]
		}
		if c.comm < 0 {
			*c = measure(a, b, s == 0)
		}
		return *c
	}
	inf := math.Inf(1)
	// bound is the least time stage s can take as free[a:b]; infinite when
	// a pin forbids it.
	bound := func(s, a, b int) float64 {
		for _, i := range pinned {
			if a <= i && i < b && pin[i] != s {
				return inf
			}
		}
		return seg(s, a, b).time()
	}

	// suf[s*stride+p] is the least bottleneck bound over every split of
	// free[p:] into stages s..n-1.
	minFirst := 0
	if len(sp.forced) == 0 {
		minFirst = 1
	}
	suf := make([]float64, n*stride)
	for i := range suf {
		suf[i] = inf
	}
	for p := minFirst + n - 2; p < m; p++ {
		suf[(n-1)*stride+p] = bound(n-1, p, m)
	}
	for s := n - 2; s >= 1; s-- {
		for p := minFirst + s - 1; p <= m-(n-s); p++ {
			least := inf
			for q := p + 1; q <= m-(n-1-s); q++ {
				if rest := suf[(s+1)*stride+q]; rest < least {
					least = min(least, max(rest, bound(s, p, q)))
				}
			}
			suf[s*stride+p] = least
		}
	}

	// score is the exact bottleneck of a complete cut: one pass over the
	// operands counts each stage's queue endpoints.
	stageOf := make([]int, m+1) // slot m: the forced SCCs, always stage 0
	comm := make([]int, n)
	score := func(cuts []int) float64 {
		tick++
		clear(comm)
		fillStages(stageOf[:m], cuts)
		for p, c := range where {
			if c == everywhere {
				continue
			}
			dest := stageOf[c]
			for _, u := range uses[usesAt[p]:usesAt[p+1]] {
				sc := where[u.src]
				if sc == everywhere || stageOf[sc] == dest || !count(u, dest) {
					continue
				}
				comm[stageOf[sc]]++
				if !u.carried {
					comm[dest]++
				}
			}
		}
		worst, a := 0.0, 0
		for s := 0; s < n; s++ {
			b := m
			if s < n-1 {
				b = cuts[s]
			}
			worst = max(worst, segCost{base: seg(s, a, b).base, comm: comm[s]}.time())
			a = b
		}
		return worst
	}

	best := inf
	var bestCuts []int
	cuts := make([]int, n-1)
	// walk chooses where stage s, which starts at free[a], ends; floor is
	// the largest bound among stages 0..s-1.
	var walk func(s, a int, floor float64)
	walk = func(s, a int, floor float64) {
		first := a + 1
		if s == 0 {
			first = minFirst
		}
		for p := first; p <= m-(n-1-s); p++ {
			reach := max(floor, bound(s, a, p))
			if max(reach, suf[(s+1)*stride+p]) >= best {
				continue
			}
			cuts[s] = p
			if s < n-2 {
				walk(s+1, p, reach)
			} else if t := score(cuts); t < best {
				best = t
				bestCuts = append(bestCuts[:0], cuts...)
			}
		}
	}
	walk(0, 0, 0)
	return bestCuts
}
