package dswp

import (
	"fmt"
	"sort"

	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// PartitionParallel applies the parallel-stage DSWP transformation
// (PS-DSWP): instead of a chain of pipeline stages, it replicates the
// loop's independent per-iteration work across `workers` identical
// worker threads (threads 0..workers-1) that take iterations in
// round-robin turns, and funnels their results into one merger thread
// (thread `workers`) that executes the sequential remainder — stores,
// reductions, anything loop-carried. The FastFlow farm collapsed onto
// the DSWP queue substrate.
//
// Eligibility is decided per node, conservatively:
//
//   - The loop's exit slice must be replicable (pure arithmetic, no
//     memory operations); it is duplicated into every thread so each one
//     counts iterations locally. Partitioner pins are ignored — there
//     are no stages to pin to.
//   - A node is *parallel* ("pure") when it is not in the slice, has no
//     loop-carried operand, is not a store, loads only from regions the
//     loop never stores to, and every operand is a constant, a slice
//     node, or itself parallel.
//   - Everything else is *merge* work and runs on the merger thread in
//     original iteration order.
//
// Each value flowing from parallel work to merge work becomes W SPSC
// lanes, one per worker (queue eIdx*W + w, route worker w -> merger):
// iteration i's value travels on lane i mod W, and the merger walks the
// lanes round-robin. Only single-producer/single-consumer queues are
// emitted, so every design point — including SYNCOPTI, whose in-memory
// controller cannot serve MPMC queues — runs parallel partitions.
// Iteration order is fully reconstructed at the merger, which is what
// keeps results bit-identical to the sequential loop.
func PartitionParallel(l *ir.Loop, workers int) (*Result, error) {
	if workers < 2 {
		return nil, fmt.Errorf("dswp: parallel-stage needs at least 2 workers, got %d", workers)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	nodeByID := map[int]*ir.Node{}
	for _, nd := range l.Body {
		nodeByID[nd.ID] = nd
	}
	slice := exitSlice(l)
	for id := range slice {
		if op := nodeByID[id].Op; op == isa.Ld || op == isa.St {
			return nil, fmt.Errorf("dswp: loop %s: exit slice touches memory; cannot replicate control across workers", l.Name)
		}
	}

	// Regions the loop stores to: loads from them are ordered against the
	// stores (the same conservative rule buildPDG uses) and must stay on
	// the merger.
	storedRegion := map[string]bool{}
	for _, nd := range l.Body {
		if nd.Op == isa.St && nd.Region != nil {
			storedRegion[nd.Region.Name] = true
		}
	}

	// Classify in ID order (topological for same-iteration data deps).
	pure := map[int]bool{}
	for _, nd := range l.Body {
		if slice[nd.ID] || nd.Op == isa.St {
			continue
		}
		if nd.Op == isa.Ld && (nd.Region == nil || storedRegion[nd.Region.Name]) {
			continue
		}
		ok := true
		for _, a := range nd.Args {
			if a.Carried {
				ok = false
				break
			}
			if a.Node == nil || slice[a.Node.ID] || pure[a.Node.ID] {
				continue
			}
			ok = false
			break
		}
		if ok {
			pure[nd.ID] = true
		}
	}
	if len(pure) == 0 {
		return nil, fmt.Errorf("dswp: loop %s has no replicable parallel work (every node is control, memory-ordered, or loop-carried)", l.Name)
	}

	// Cross edges: distinct (parallel source, carried) pairs consumed by
	// merge nodes. Each expands to one lane per worker.
	type ekey struct {
		src     int
		carried bool
	}
	seen := map[ekey]bool{}
	var eks []ekey
	for _, nd := range l.Body {
		if slice[nd.ID] || pure[nd.ID] {
			continue
		}
		for _, a := range nd.Args {
			if a.Node == nil || !pure[a.Node.ID] {
				continue
			}
			k := ekey{src: a.Node.ID, carried: a.Carried}
			if !seen[k] {
				seen[k] = true
				eks = append(eks, k)
			}
		}
	}
	if len(eks) == 0 {
		return nil, fmt.Errorf("dswp: loop %s: parallel work feeds nothing on the merger; a parallel partition would be dead code", l.Name)
	}
	sort.Slice(eks, func(i, j int) bool {
		if eks[i].src != eks[j].src {
			return eks[i].src < eks[j].src
		}
		return !eks[i].carried && eks[j].carried
	})
	edges := make([]parEdge, len(eks))
	for i, k := range eks {
		edges[i] = parEdge{src: k.src, carried: k.carried, base: i * workers}
	}

	res := &Result{
		Stages:     workers + 1,
		Assignment: map[int]int{},
		QueueCount: len(edges) * workers,
	}
	for _, nd := range l.Body {
		switch {
		case slice[nd.ID]:
			res.Replicated = append(res.Replicated, nd.ID)
		case pure[nd.ID]:
			res.Assignment[nd.ID] = 0
		default:
			res.Assignment[nd.ID] = workers
		}
	}
	sort.Ints(res.Replicated)
	for range edges {
		for w := 0; w < workers; w++ {
			res.Routes = append(res.Routes, QueueRoute{Producer: w, Consumer: workers})
		}
	}

	for w := 0; w < workers; w++ {
		prog, err := genWorker(l, w, workers, pure, slice, edges)
		if err != nil {
			return nil, err
		}
		res.Threads = append(res.Threads, prog)
	}
	merger, err := genMerger(l, workers, pure, edges)
	if err != nil {
		return nil, err
	}
	res.Threads = append(res.Threads, merger)
	return res, nil
}

// parEdge is one parallel-to-merge value flow; base is its first lane's
// queue number (worker w uses queue base+w).
type parEdge struct {
	src     int
	carried bool
	base    int
}

// genWorker emits worker w's program: the replicated exit slice runs
// every iteration; the parallel body runs only on this worker's turns
// (iterations congruent to w mod workers), gated by a countdown register
// so turn dispatch costs two instructions per skipped iteration.
func genWorker(l *ir.Loop, w, workers int, pure, slice map[int]bool, edges []parEdge) (*isa.Program, error) {
	name := fmt.Sprintf("%s.w%d", l.Name, w)
	g := newEmitter(name)
	b := g.b

	local := map[int]bool{}
	var sliceNodes, pureNodes []*ir.Node
	for _, n := range l.Body {
		switch {
		case slice[n.ID]:
			sliceNodes = append(sliceNodes, n)
		case pure[n.ID]:
			pureNodes = append(pureNodes, n)
		default:
			continue
		}
		local[n.ID] = true
	}
	sliceNodes = scheduleASAP(sliceNodes, local)
	pureNodes = scheduleASAP(pureNodes, local)
	g.assign(sliceNodes, local)
	g.assign(pureNodes, local)
	rCnt := g.take()
	if err := g.prolog(name); err != nil {
		return nil, err
	}
	b.MovI(rCnt, int64(w))

	b.Label("loop")
	if err := g.body(sliceNodes); err != nil {
		return nil, err
	}
	skip := b.FreshLabel("skip")
	b.Bnez(rCnt, skip)
	if err := g.body(pureNodes); err != nil {
		return nil, err
	}
	// This worker's turns are exactly the iterations its lanes carry, so
	// every produce targets a static queue — no dispatch needed.
	for _, e := range edges {
		b.Produce(e.base+w, g.regOf[e.src])
	}
	b.MovI(rCnt, int64(workers))
	b.Label(skip)
	b.AddI(rCnt, rCnt, -1)

	g.refresh(local)
	b.Bnez(g.regOf[l.Exit.ID], "loop")
	b.Halt()
	return b.Program()
}

// genMerger emits the merger's program (thread `workers`): replicated
// exit slice, round-robin lane consumes for every imported value, and
// the sequential merge body in original iteration order.
func genMerger(l *ir.Loop, workers int, pure map[int]bool, edges []parEdge) (*isa.Program, error) {
	name := l.Name + ".m"
	g := newEmitter(name)
	b := g.b

	local := map[int]bool{}
	var bodyNodes []*ir.Node
	for _, n := range l.Body {
		if !pure[n.ID] {
			local[n.ID] = true
			bodyNodes = append(bodyNodes, n)
		}
	}
	bodyNodes = scheduleASAP(bodyNodes, local)
	g.assign(bodyNodes, local)
	// Lane dispatch compares the lane counter against 0..workers-2 and
	// wraps it against workers; materialize those constants.
	for w := 0; w < workers-1; w++ {
		g.constant(int64(w))
	}
	g.constant(int64(workers))
	rLane, rT := g.take(), g.take()
	if err := g.prolog(name); err != nil {
		return nil, err
	}
	b.MovI(rLane, 0)

	// laneConsume receives the value of the current iteration from its
	// worker's lane, queue base+lane.
	laneConsume := func(dst isa.Reg, base int) {
		done := b.FreshLabel("qdone")
		for w := 0; w < workers-1; w++ {
			next := b.FreshLabel("qnext")
			b.CmpEQ(rT, rLane, g.constant(int64(w)))
			b.Beqz(rT, next)
			b.Consume(dst, base+w)
			b.B(done)
			b.Label(next)
		}
		b.Consume(dst, base+workers-1)
		b.Label(done)
	}

	b.Label("loop")
	for _, e := range edges {
		if !e.carried {
			laneConsume(g.regOf[e.src], e.base)
		}
	}
	if err := g.body(bodyNodes); err != nil {
		return nil, err
	}
	g.refresh(local)
	for _, e := range edges {
		if e.carried {
			g.importCarried(e.src, func(dst isa.Reg) { laneConsume(dst, e.base) })
		}
	}
	// Advance the lane counter, wrapping at workers.
	b.AddI(rLane, rLane, 1)
	b.CmpEQ(rT, rLane, g.constant(int64(workers)))
	noWrap := b.FreshLabel("nowrap")
	b.Beqz(rT, noWrap)
	b.MovI(rLane, 0)
	b.Label(noWrap)

	b.Bnez(g.regOf[l.Exit.ID], "loop")
	b.Halt()
	return b.Program()
}
