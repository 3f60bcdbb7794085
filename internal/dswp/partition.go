package dswp

import (
	"fmt"
	"sort"

	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// Result is a DSWP partition of a loop into pipeline-stage threads.
type Result struct {
	// Threads holds the generated stage programs in pipeline order.
	Threads []*isa.Program
	// Stages is the number of pipeline stages (threads).
	Stages int
	// Assignment maps node ID to its stage; replicated control-slice
	// nodes are listed in Replicated instead.
	Assignment map[int]int
	// Replicated lists node IDs duplicated into every thread (the loop
	// control slice, when it is pure arithmetic).
	Replicated []int
	// QueueCount is the number of inter-thread queues used (including
	// control queues when the exit condition is streamed).
	QueueCount int
	// Routes names the producing and consuming stage of each queue, in
	// queue-number order; machines with more than two cores need it to
	// route forwards, ACKs and probes.
	Routes []QueueRoute
	// CondStreamed reports whether the exit condition flows through
	// queues rather than being recomputed by every thread.
	CondStreamed bool
}

// QueueRoute names the stages on either end of one queue.
type QueueRoute struct {
	Producer int
	Consumer int
}

// crossEdge is a dependence crossing the partition: one queue carries the
// source node's value (of this or the previous iteration) to one
// consuming stage.
type crossEdge struct {
	src     int  // producing node
	carried bool // consumed by the next iteration
	dest    int  // consuming stage
	queue   int
}

// Partition applies the DSWP algorithm with the paper's two pipeline
// stages (its dual-core CMP).
func Partition(l *ir.Loop) (*Result, error) { return PartitionN(l, 2) }

// PartitionN partitions the loop into n pipeline stages: PDG, SCC
// condensation, a minimum-bottleneck monotone cut into n consecutive
// segments, and code generation with produce/consume on every crossing
// dependence. Stages beyond the paper's two exercise larger CMPs (the
// HEAVYWT substrate runs any number of cores).
func PartitionN(l *ir.Loop, n int) (*Result, error) {
	sp, err := newCutSpace(l, n)
	if err != nil {
		return nil, err
	}
	cuts := sp.bestCut()
	if cuts == nil {
		return nil, fmt.Errorf("dswp: loop %s: no valid %d-stage cut (check pins)", l.Name, n)
	}
	return sp.emit(cuts)
}

// cutSpace is the search space of one PartitionN call: the loop's SCCs in
// pipeline order, split into those every cut must leave in stage 0 and
// those a cut distributes. A cut is n-1 strictly increasing positions in
// free; cuts[i] is the first free SCC of stage i+1.
type cutSpace struct {
	l *ir.Loop
	n int
	// forced SCCs hold a non-replicable exit slice and stay in stage 0
	// (control flows forward only); free SCCs are assigned by the cut.
	forced, free [][]int
	// slice is the exit node's backward closure; when replicable (no
	// memory operations) every thread recomputes it.
	slice      map[int]bool
	replicable bool
}

func newCutSpace(l *ir.Loop, n int) (*cutSpace, error) {
	if n < 2 {
		return nil, fmt.Errorf("dswp: need at least 2 stages, got %d", n)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	g := buildPDG(l)
	comps := g.sccs()
	if len(comps) < n {
		return nil, fmt.Errorf("dswp: loop %s has %d SCCs; cannot form %d stages", l.Name, len(comps), n)
	}

	// Replicable control slice: the backward closure of the exit node, if
	// it contains no memory operations, is cheap to recompute in every
	// thread (the DSWP branch-replication rule).
	sp := &cutSpace{l: l, n: n, slice: exitSlice(l), replicable: true}
	for _, nd := range l.Body {
		if sp.slice[nd.ID] && (nd.Op == isa.Ld || nd.Op == isa.St) {
			sp.replicable = false
			break
		}
	}

	for _, comp := range comps {
		allSlice := true
		hasSlice := false
		for _, id := range comp {
			if sp.slice[id] {
				hasSlice = true
			} else {
				allSlice = false
			}
		}
		switch {
		case sp.replicable && allSlice:
			// Replicated into every thread at codegen.
		case !sp.replicable && hasSlice:
			sp.forced = append(sp.forced, comp)
		default:
			sp.free = append(sp.free, comp)
		}
	}
	// Stages 1..n-1 each take a free SCC, and so does stage 0 when
	// nothing is forced into it.
	need := n - 1
	if len(sp.forced) == 0 {
		need = n
	}
	if len(sp.free) < need {
		return nil, fmt.Errorf("dswp: loop %s has too little partitionable work for %d stages", l.Name, n)
	}
	return sp, nil
}

// fillStages sets stageOf[i] to the stage free SCC i falls in under cuts.
func fillStages(stageOf, cuts []int) {
	s := 0
	for i := range stageOf {
		for s < len(cuts) && i >= cuts[s] {
			s++
		}
		stageOf[i] = s
	}
}

// emit generates the thread programs of the partition a cut describes.
func (sp *cutSpace) emit(cuts []int) (*Result, error) {
	l, n, slice, replicable := sp.l, sp.n, sp.slice, sp.replicable
	assign := map[int]int{}
	for _, comp := range sp.forced {
		for _, id := range comp {
			assign[id] = 0
		}
	}
	stageOf := make([]int, len(sp.free))
	fillStages(stageOf, cuts)
	for i, comp := range sp.free {
		for _, id := range comp {
			assign[id] = stageOf[i]
		}
	}

	// Cross-partition dependences become queues: one per
	// (source, carried, consuming stage) triple.
	type qkey struct {
		src     int
		carried bool
		dest    int
	}
	queueOf := map[qkey]int{}
	var edges []crossEdge
	for _, nd := range l.Body {
		nt, local := threadOf(nd.ID, assign, slice, replicable)
		if local {
			continue
		}
		for _, a := range nd.Args {
			if a.Node == nil || a.Node.ID == nd.ID {
				continue
			}
			st, slocal := threadOf(a.Node.ID, assign, slice, replicable)
			if slocal || st == nt {
				continue
			}
			k := qkey{src: a.Node.ID, carried: a.Carried, dest: nt}
			if _, ok := queueOf[k]; !ok {
				queueOf[k] = 0 // numbered below
				edges = append(edges, crossEdge{src: k.src, carried: k.carried, dest: k.dest})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		if edges[i].dest != edges[j].dest {
			return edges[i].dest < edges[j].dest
		}
		return !edges[i].carried && edges[j].carried
	})
	var routes []QueueRoute
	for i := range edges {
		edges[i].queue = i
		routes = append(routes, QueueRoute{Producer: assign[edges[i].src], Consumer: edges[i].dest})
	}
	queueCount := len(edges)

	// Control queues: when the exit condition is streamed, its owner
	// produces one copy per other stage.
	condStreamed := !replicable
	condQueues := make([]int, n)
	for i := range condQueues {
		condQueues[i] = -1
	}
	if condStreamed {
		owner := assign[l.Exit.ID]
		for t := 0; t < n; t++ {
			if t != owner {
				condQueues[t] = queueCount
				routes = append(routes, QueueRoute{Producer: owner, Consumer: t})
				queueCount++
			}
		}
	}

	res := &Result{
		Stages:       n,
		Assignment:   assign,
		QueueCount:   queueCount,
		Routes:       routes,
		CondStreamed: condStreamed,
	}
	for id := range slice {
		if replicable {
			res.Replicated = append(res.Replicated, id)
		}
	}
	sort.Ints(res.Replicated)

	for th := 0; th < n; th++ {
		prog, err := generate(l, th, n, assign, slice, replicable, edges, condQueues)
		if err != nil {
			return nil, err
		}
		res.Threads = append(res.Threads, prog)
	}
	return res, nil
}

// threadOf returns the stage of a node and whether it is replicated
// (present in every thread).
func threadOf(id int, assign map[int]int, slice map[int]bool, replicable bool) (int, bool) {
	if replicable && slice[id] {
		return -1, true
	}
	return assign[id], false
}

// exitSlice returns the backward closure of the loop's exit node over data
// dependences (carried edges included).
func exitSlice(l *ir.Loop) map[int]bool {
	slice := map[int]bool{}
	var visit func(n *ir.Node)
	visit = func(n *ir.Node) {
		if slice[n.ID] {
			return
		}
		slice[n.ID] = true
		for _, a := range n.Args {
			if a.Node != nil {
				visit(a.Node)
			}
		}
	}
	visit(l.Exit)
	return slice
}
