package dswp

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"hfstream/internal/asm"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// maxGenReg bounds code-generation register use so the software-queue
// lowering pass (which claims registers from the top of the file) never
// collides with generated code.
const maxGenReg = 50

// generate emits the program for one pipeline stage of the partition:
// direct imports at the top of the body, exports at its end, carried
// imports after the refresh, and the loop condition computed locally or
// received from its owner.
func generate(l *ir.Loop, th, stages int, assign []int, slice []bool,
	replicable bool, edges []crossEdge, condQueues []int) (*isa.Program, error) {

	name := l.Name + ".t" + strconv.Itoa(th)
	g := newEmitter(name, len(l.Body))
	b := g.b

	local := make([]bool, len(l.Body))
	bodyNodes := make([]*ir.Node, 0, len(l.Body))
	for _, n := range l.Body {
		t, repl := threadOf(n.ID, assign, slice, replicable)
		if repl || t == th {
			local[n.ID] = true
			bodyNodes = append(bodyNodes, n)
		}
	}
	// edges are in queue order, edges[i].queue == i. This stage produces
	// the edges whose source it computes, and consumes those whose
	// consuming stage it is.
	consumes := func(e crossEdge, carried bool) bool {
		return !local[e.src] && e.dest == th && e.carried == carried
	}
	// List-schedule the body by ASAP level so independent work fills the
	// latency shadows of FP and load chains — the in-order core stalls at
	// the first unready instruction, exactly as the paper's Itanium 2
	// does, so emission order matters the way compiler scheduling does.
	bodyNodes = scheduleASAP(bodyNodes, local)
	g.assign(bodyNodes, local)
	condStreamed := condQueues != nil && !replicable
	condReg := isa.Reg(0)
	if condStreamed && !local[l.Exit.ID] {
		condReg = g.take()
	}
	if err := g.prolog(name); err != nil {
		return nil, err
	}

	b.Label("loop")
	for _, e := range edges {
		if consumes(e, false) {
			b.Consume(g.regOf[e.src], e.queue)
		}
	}
	if err := g.body(bodyNodes); err != nil {
		return nil, err
	}

	// Produces go at the end of the body, in queue order: a produce stalls
	// issue until its operand is ready, so emitting it mid-body would
	// serialize the independent work behind it on the in-order core.
	for _, e := range edges {
		if local[e.src] {
			b.Produce(e.queue, g.regOf[e.src])
		}
	}
	if condStreamed && local[l.Exit.ID] {
		// The control owner feeds every other stage its copy.
		for t := 0; t < stages; t++ {
			if condQueues[t] >= 0 {
				b.Produce(condQueues[t], g.regOf[l.Exit.ID])
			}
		}
	}

	g.refresh(local)
	for _, e := range edges {
		if consumes(e, true) {
			g.importCarried(e.src, func(dst isa.Reg) { b.Consume(dst, e.queue) })
		}
	}

	// Loop back-edge.
	switch {
	case local[l.Exit.ID]:
		b.Bnez(g.regOf[l.Exit.ID], "loop")
	case condStreamed && condQueues[th] >= 0:
		b.Consume(condReg, condQueues[th])
		b.Bnez(condReg, "loop")
	default:
		return nil, fmt.Errorf("dswp: %s has no loop condition available", name)
	}
	b.Halt()
	return b.Program()
}

// scheduleASAP orders body nodes, in place, by earliest-start level over
// local same-iteration dependence chains, interleaving independent chains
// so the in-order pipeline can hide operation latency. Dependences are
// preserved: a consumer's level always exceeds its producer's.
func scheduleASAP(nodes []*ir.Node, local []bool) []*ir.Node {
	level := make([]int, len(local))
	for _, n := range nodes { // ID order is topological for these deps
		lv := 0
		for _, a := range n.Args {
			if a.Node == nil || a.Carried || !local[a.Node.ID] {
				continue
			}
			if d := level[a.Node.ID] + a.Node.Op.Latency(); d > lv {
				lv = d
			}
		}
		level[n.ID] = lv
	}
	slices.SortStableFunc(nodes, func(x, y *ir.Node) int {
		return cmp.Or(cmp.Compare(level[x.ID], level[y.ID]), cmp.Compare(x.ID, y.ID))
	})
	return nodes
}

// carryKey identifies one carried-value register: two carried uses of
// the same node with different iteration-zero values need distinct
// registers.
type carryKey struct {
	id   int
	init int64
}

// emitter builds one thread program. Every generator — a chain stage,
// Single, a PS-DSWP worker, the merger — takes the same steps through it:
// assign registers to the nodes it computes and the values it reads, take
// any registers of its own, write the prologue, then the loop body, the
// carried-value refresh and the carried imports. A generator adds only
// where its imports come from and its exports go, and control of its own.
//
// newEmitter returns it by value so the maps live in the generator's frame;
// the thread name stays out of the struct for the same reason. nodes, the
// loop's node count, sizes regOf and the builder.
type emitter struct {
	b        *asm.Builder
	next     isa.Reg   // r0 is never allocated
	regOf    []isa.Reg // by node ID: local results and direct imports, 0 for none
	carryReg map[carryKey]isa.Reg
	constReg map[int64]isa.Reg
	carried  []carryKey // carryReg's keys in prologue order, set by prolog
}

func newEmitter(name string, nodes int) emitter {
	b := asm.NewBuilder(name)
	b.Grow(2 * nodes)
	return emitter{
		b:        b,
		next:     1,
		regOf:    make([]isa.Reg, nodes),
		carryReg: map[carryKey]isa.Reg{},
		constReg: map[int64]isa.Reg{},
	}
}

func (g *emitter) take() isa.Reg {
	r := g.next
	g.next++
	return r
}

// constant returns the register materializing v, taking one on first use.
func (g *emitter) constant(v int64) isa.Reg {
	r, ok := g.constReg[v]
	if !ok {
		r = g.take()
		g.constReg[v] = r
	}
	return r
}

// assign takes a register for each value node, in emission order, and for
// each constant, carried value and import target its operands read.
func (g *emitter) assign(nodes []*ir.Node, local []bool) {
	for _, n := range nodes {
		if n.Op != isa.St {
			g.regOf[n.ID] = g.take()
		}
		for ai, a := range n.Args {
			switch {
			case a.Node == nil:
				if !immFoldable(n.Op, ai) {
					g.constant(a.Const)
				}
			case a.Carried:
				k := carryKey{a.Node.ID, a.Init}
				if _, ok := g.carryReg[k]; !ok {
					g.carryReg[k] = g.take()
				}
			case !local[a.Node.ID]:
				if g.regOf[a.Node.ID] == 0 {
					g.regOf[a.Node.ID] = g.take()
				}
			}
		}
	}
}

// prolog checks the register budget, then materializes the constants and
// the carried values' initial values, each in sorted order.
func (g *emitter) prolog(name string) error {
	if g.next > maxGenReg {
		return fmt.Errorf("dswp: %s needs %d registers, limit %d", name, g.next, maxGenReg)
	}
	var buf [16]int64 // enough for most threads' constants
	vals := buf[:0]
	for v := range g.constReg {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	for _, v := range vals {
		g.b.MovI(g.constReg[v], v)
	}
	keys := make([]carryKey, 0, len(g.carryReg))
	for k := range g.carryReg {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y carryKey) int {
		return cmp.Or(cmp.Compare(x.id, y.id), cmp.Compare(x.init, y.init))
	})
	for _, k := range keys {
		g.b.MovI(g.carryReg[k], k.init)
	}
	g.carried = keys
	return nil
}

// body lowers the nodes, one instruction each.
func (g *emitter) body(nodes []*ir.Node) error {
	for _, n := range nodes {
		if err := g.node(n); err != nil {
			return err
		}
	}
	return nil
}

func (g *emitter) node(n *ir.Node) error {
	b, rd := g.b, g.regOf[n.ID]
	switch n.Op {
	case isa.MovI:
		b.MovI(rd, n.Args[0].Const)
	case isa.Mov, isa.I2F, isa.F2I:
		b.Emit(isa.Instr{Op: n.Op, Rd: rd, Ra: g.operand(n, 0)})
	case isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
		b.Emit(isa.Instr{Op: n.Op, Rd: rd, Ra: g.operand(n, 0), Imm: n.Args[1].Const})
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.And, isa.Or, isa.Xor,
		isa.CmpEQ, isa.CmpNE, isa.CmpLT,
		isa.FAdd, isa.FSub, isa.FMul, isa.FDiv:
		b.Emit(isa.Instr{Op: n.Op, Rd: rd, Ra: g.operand(n, 0), Rb: g.operand(n, 1)})
	case isa.Ld:
		b.Ld(rd, g.operand(n, 0), n.Off)
	case isa.St:
		b.St(g.operand(n, 0), n.Off, g.operand(n, 1))
	default:
		return fmt.Errorf("dswp: node %d: unsupported op %v", n.ID, n.Op)
	}
	return nil
}

// operand returns the register holding argument ai of n.
func (g *emitter) operand(n *ir.Node, ai int) isa.Reg {
	a := n.Args[ai]
	switch {
	case a.Node == nil:
		return g.constReg[a.Const]
	case a.Carried:
		return g.carryReg[carryKey{a.Node.ID, a.Init}]
	default:
		return g.regOf[a.Node.ID]
	}
}

// refresh copies each locally computed carried value into its carry
// register for the next iteration.
func (g *emitter) refresh(local []bool) {
	for _, k := range g.carried {
		if local[k.id] {
			g.b.Mov(g.carryReg[k], g.regOf[k.id])
		}
	}
}

// importCarried receives src's value for the next iteration once, through
// consume, and fans it out to every other carry register of src.
func (g *emitter) importCarried(src int, consume func(dst isa.Reg)) {
	first := isa.Reg(0) // r0 is never allocated
	for _, k := range g.carried {
		if k.id != src {
			continue
		}
		if first == 0 {
			first = g.carryReg[k]
			consume(first)
		} else {
			g.b.Mov(g.carryReg[k], first)
		}
	}
}

// immFoldable reports whether argument ai of op is encoded as an
// immediate rather than needing a materialized constant register.
func immFoldable(op isa.Op, ai int) bool {
	switch op {
	case isa.MovI:
		return ai == 0
	case isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
		return ai == 1
	default:
		return false
	}
}

// Single generates the single-threaded version of the loop: the Figure 9
// baseline against which pipelined speedup is measured.
func Single(l *ir.Loop) (*isa.Program, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return generate(l, 0, 1, make([]int, len(l.Body)), nil, false, nil, nil)
}
