package dswp

import (
	"fmt"

	"hfstream/internal/ir"
)

// The referee for bestCut: the enumerate-and-score search it replaced,
// kept as it was (every C(m, n-1) monotone cut, n map-allocating
// stageCost calls per cut) except that it reports the cut, not the
// assignment. The external test package compares the two; it lives
// outside package dswp because the IR kernels come from
// internal/workloads, which imports this package.

// RandomLoop hands the external test package the seeded loop generator.
var RandomLoop = randomLoop

// PartitionNCuts is PartitionN, also returning the cut it chose.
func PartitionNCuts(l *ir.Loop, n int) (*Result, []int, error) {
	return partitionVia((*cutSpace).bestCut, l, n)
}

// PartitionNRef is PartitionN with the referee choosing the cut.
func PartitionNRef(l *ir.Loop, n int) (*Result, []int, error) {
	return partitionVia((*cutSpace).bestCutRef, l, n)
}

func partitionVia(search func(*cutSpace) []int, l *ir.Loop, n int) (*Result, []int, error) {
	sp, err := newCutSpace(l, n)
	if err != nil {
		return nil, nil, err
	}
	cuts := search(sp)
	if cuts == nil {
		return nil, nil, fmt.Errorf("dswp: loop %s: no valid %d-stage cut", l.Name, n)
	}
	res, err := sp.emit(cuts)
	return res, cuts, err
}

// bestCutRef enumerates every monotone split of the free SCCs into n
// consecutive segments (forced SCCs always join stage 0) and returns the
// cut minimizing the estimated bottleneck-stage time.
func (sp *cutSpace) bestCutRef() []int {
	l, n, forced, free := sp.l, sp.n, sp.forced, sp.free
	nodeByID := map[int]*ir.Node{}
	for _, nd := range l.Body {
		nodeByID[nd.ID] = nd
	}

	baseT0 := map[int]bool{}
	for _, comp := range forced {
		for _, id := range comp {
			baseT0[id] = true
		}
	}

	bestScore := -1.0
	var best []int

	// cuts[i] is the first free-SCC index of stage i+1; enumerate all
	// strictly increasing (n-1)-tuples over [minFirst .. len(free)].
	cuts := make([]int, n-1)
	var enumerate func(level, from int)
	enumerate = func(level, from int) {
		if level == n-1 {
			assign := map[int]int{}
			for id := range baseT0 {
				assign[id] = 0
			}
			for i, comp := range free {
				th := 0
				for c := n - 2; c >= 0; c-- {
					if i >= cuts[c] {
						th = c + 1
						break
					}
				}
				for _, id := range comp {
					assign[id] = th
				}
			}
			// Stage 0 must be non-empty.
			if cuts[0] == 0 && len(baseT0) == 0 {
				return
			}
			if violatesPins(l, assign) {
				return
			}
			score := 0.0
			for th := 0; th < n; th++ {
				c := stageCost(l, nodeByID, assign, th, sp.slice, sp.replicable)
				if c > score {
					score = c
				}
			}
			if bestScore < 0 || score < bestScore {
				bestScore = score
				best = append([]int(nil), cuts...)
			}
			return
		}
		// Strictly increasing cuts, with the last stage non-empty:
		// cuts[level] leaves room for the remaining n-2-level cuts and
		// cuts[n-2] <= len(free)-1.
		for p := from; p <= len(free)-1-(n-2-level); p++ {
			cuts[level] = p
			enumerate(level+1, p+1)
		}
	}
	enumerate(0, 0)
	return best
}

// violatesPins reports whether an assignment contradicts the loop's
// partitioner hints.
func violatesPins(l *ir.Loop, assign map[int]int) bool {
	for id, stage := range l.Pins {
		if th, ok := assign[id]; ok && th != stage {
			return true
		}
	}
	return false
}

// stageCost estimates one stage's per-iteration time: the maximum of its
// issue-bandwidth bound (total latency-weighted work over an effective
// width) and its dependence-chain bound, plus per-queue COMM-OP cost for
// the values it imports and exports.
func stageCost(l *ir.Loop, nodeByID map[int]*ir.Node, assign map[int]int,
	th int, slice []bool, replicable bool) float64 {

	width := 3.0 // effective sustained issue on the in-order core
	work := 0
	depth := map[int]int{}
	maxChain := 0
	comm := map[[3]int]bool{} // (src, carriedBit, dest) endpoints touching th
	for _, n := range l.Body {
		nt, repl := refThreadOf(n.ID, assign, slice, replicable)
		if !repl && nt != th {
			// Still scan its operands for edges produced by this stage.
			if !repl {
				for _, a := range n.Args {
					if a.Node == nil || a.Node.ID == n.ID {
						continue
					}
					st, slocal := refThreadOf(a.Node.ID, assign, slice, replicable)
					if !slocal && st == th && st != nt {
						cb := 0
						if a.Carried {
							cb = 1
						}
						comm[[3]int{a.Node.ID, cb, nt}] = true
					}
				}
			}
			continue
		}
		work += n.Weight()
		d := 0
		for _, a := range n.Args {
			if a.Node == nil || a.Carried {
				continue
			}
			if pd, ok := depth[a.Node.ID]; ok && pd > d {
				d = pd
			}
			st, slocal := refThreadOf(a.Node.ID, assign, slice, replicable)
			if !repl && !slocal && st != th {
				cb := 0
				if a.Carried {
					cb = 1
				}
				comm[[3]int{a.Node.ID, cb, th}] = true
			}
		}
		d += n.Weight()
		depth[n.ID] = d
		if d > maxChain {
			maxChain = d
		}
	}
	cost := float64(work) / width
	if float64(maxChain) > cost {
		cost = float64(maxChain)
	}
	return cost + 1.5*float64(len(comm))
}

// refThreadOf is threadOf over the reference's assignment map, in which a
// node it does not list is in stage 0.
func refThreadOf(id int, assign map[int]int, slice []bool, replicable bool) (int, bool) {
	if replicable && slice[id] {
		return -1, true
	}
	return assign[id], false
}
