// Package dswp implements Decoupled Software Pipelining (Ottoni et al.,
// MICRO 2005), the parallelization substrate the paper's workloads were
// built with: it constructs the program dependence graph of a loop,
// collapses strongly connected components, partitions the SCC DAG into
// pipeline stages, and generates thread programs with produce/consume
// instructions on the cross-stage dependences.
package dswp

import (
	"cmp"
	"slices"

	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// pdg is the program dependence graph over loop body nodes: data
// dependences (including loop-carried) plus conservative memory
// dependences that force same-region conflicting accesses into one SCC.
// It is indexed by node ID, which a valid loop makes the body position:
// succ[id] lists the nodes id's value or memory order reaches, each once.
type pdg struct {
	nodes []*ir.Node
	succ  [][]int
}

func buildPDG(l *ir.Loop) *pdg {
	g := &pdg{nodes: l.Body, succ: make([][]int, len(l.Body))}
	// Every row is carved from one array sized by a counting pass over
	// the same edges, so adding an edge never allocates.
	count := make([]int, len(l.Body))
	total := 0
	g.edges(func(from, to int) { count[from]++; total++ })
	backing := make([]int, total)
	for id, c := range count {
		g.succ[id], backing = backing[:0:c], backing[c:]
	}
	g.edges(func(from, to int) {
		if !slices.Contains(g.succ[from], to) {
			g.succ[from] = append(g.succ[from], to)
		}
	})
	return g
}

// edges calls add for every dependence between two distinct nodes,
// possibly more than once.
func (g *pdg) edges(add func(from, to int)) {
	// Data dependences.
	for _, n := range g.nodes {
		for _, a := range n.Args {
			if a.Node != nil && a.Node != n {
				add(a.Node.ID, n.ID)
			}
		}
	}
	// Memory dependences: conflicting accesses (at least one store) to the
	// same region are tied into a cycle so they stay in one thread. This
	// is conservative but matches how kernels are authored (thread-crossing
	// data flows through explicit dependences, not through memory).
	for i, a := range g.nodes {
		if a.Region == nil || !storesTo(g.nodes, a.Region.Name) {
			continue
		}
		for _, b := range g.nodes[i+1:] {
			if b.Region != nil && b.Region.Name == a.Region.Name {
				add(a.ID, b.ID)
				add(b.ID, a.ID)
			}
		}
	}
}

// storesTo reports whether any of the nodes stores to the named region.
func storesTo(nodes []*ir.Node, region string) bool {
	for _, n := range nodes {
		if n.Op == isa.St && n.Region != nil && n.Region.Name == region {
			return true
		}
	}
	return false
}

// sccs returns the strongly connected components, as sorted node IDs, in
// topological order of the condensation (every edge goes from an earlier
// to a later SCC).
func (g *pdg) sccs() [][]int {
	n := len(g.nodes)
	index := make([]int, n) // 0: not yet visited
	low := make([]int, n)
	onStack := make([]bool, n)
	stack := make([]int, 0, n)
	ids := make([]int, 0, n) // every component's IDs, back to back
	comps := make([][]int, 0, n)
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		counter++
		index[v] = counter
		low[v] = counter
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.succ[v] {
			if index[w] == 0 {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			start := len(ids)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				ids = append(ids, w)
				if w == v {
					break
				}
			}
			comp := ids[start:len(ids):len(ids)]
			slices.Sort(comp)
			comps = append(comps, comp)
		}
	}
	for v := range g.nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	// Tarjan emits SCCs in reverse topological order; reverse them.
	slices.Reverse(comps)
	return sortByLevel(comps, g)
}

// sortByLevel refines the topological order of the condensation by ASAP
// level (longest path from a source SCC), so that prefix cuts of the
// order correspond to natural pipeline stages: sources first, sinks
// (accumulators, stores) last. Ties break on smallest node ID, keeping
// the order deterministic.
func sortByLevel(comps [][]int, g *pdg) [][]int {
	compOf := make([]int, len(g.nodes))
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
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(level[a], level[b]), cmp.Compare(comps[a][0], comps[b][0]))
	})
	out := make([][]int, 0, len(comps))
	for _, i := range idx {
		out = append(out, comps[i])
	}
	return out
}
