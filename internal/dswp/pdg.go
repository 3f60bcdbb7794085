// Package dswp implements Decoupled Software Pipelining (Ottoni et al.,
// MICRO 2005), the parallelization substrate the paper's workloads were
// built with: it constructs the program dependence graph of a loop,
// collapses strongly connected components, partitions the SCC DAG into
// pipeline stages, and generates thread programs with produce/consume
// instructions on the cross-stage dependences.
package dswp

import (
	"sort"

	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// pdg is the program dependence graph over loop body nodes: data
// dependences (including loop-carried) plus conservative memory
// dependences that force same-region conflicting accesses into one SCC.
type pdg struct {
	nodes []*ir.Node
	succ  map[int][]int
}

func buildPDG(l *ir.Loop) *pdg {
	g := &pdg{nodes: l.Body, succ: make(map[int][]int)}
	add := func(from, to int) {
		if from == to {
			return
		}
		for _, s := range g.succ[from] {
			if s == to {
				return
			}
		}
		g.succ[from] = append(g.succ[from], to)
	}
	// Data dependences.
	for _, n := range l.Body {
		for _, a := range n.Args {
			if a.Node != nil {
				add(a.Node.ID, n.ID)
			}
		}
	}
	// Memory dependences: conflicting accesses (at least one store) to the
	// same region are tied into a cycle so they stay in one thread. This
	// is conservative but matches how kernels are authored (thread-crossing
	// data flows through explicit dependences, not through memory).
	byRegion := map[string][]*ir.Node{}
	for _, n := range l.Body {
		if n.Region != nil {
			byRegion[n.Region.Name] = append(byRegion[n.Region.Name], n)
		}
	}
	for _, accs := range byRegion {
		hasStore := false
		for _, n := range accs {
			if n.Op == isa.St {
				hasStore = true
				break
			}
		}
		if !hasStore {
			continue
		}
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				add(accs[i].ID, accs[j].ID)
				add(accs[j].ID, accs[i].ID)
			}
		}
	}
	return g
}

// sccs returns the strongly connected components in topological order of
// the condensation (every edge goes from an earlier to a later SCC).
func (g *pdg) sccs() [][]int {
	index := map[int]int{}
	low := map[int]int{}
	onStack := map[int]bool{}
	var stack []int
	var comps [][]int
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		counter++
		index[v] = counter
		low[v] = counter
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	for _, n := range g.nodes {
		if _, seen := index[n.ID]; !seen {
			strongconnect(n.ID)
		}
	}
	// Tarjan emits SCCs in reverse topological order; reverse them.
	out := make([][]int, 0, len(comps))
	for i := len(comps) - 1; i >= 0; i-- {
		out = append(out, comps[i])
	}
	return sortByLevel(out, g)
}

// sortByLevel refines the topological order of the condensation by ASAP
// level (longest path from a source SCC), so that prefix cuts of the
// order correspond to natural pipeline stages: sources first, sinks
// (accumulators, stores) last. Ties break on smallest node ID, keeping
// the order deterministic.
func sortByLevel(comps [][]int, g *pdg) [][]int {
	compOf := map[int]int{}
	for ci, comp := range comps {
		for _, id := range comp {
			compOf[id] = ci
		}
	}
	level := make([]int, len(comps))
	// comps is already topological, so one forward pass suffices.
	for ci, comp := range comps {
		for _, id := range comp {
			for _, succ := range g.succ[id] {
				sc := compOf[succ]
				if sc != ci && level[ci]+1 > level[sc] {
					level[sc] = level[ci] + 1
				}
			}
		}
	}
	idx := make([]int, len(comps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if level[idx[a]] != level[idx[b]] {
			return level[idx[a]] < level[idx[b]]
		}
		return comps[idx[a]][0] < comps[idx[b]][0]
	})
	out := make([][]int, 0, len(comps))
	for _, i := range idx {
		out = append(out, comps[i])
	}
	return out
}
