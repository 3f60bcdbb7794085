package dswp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
func generate(l *ir.Loop, th, stages int, assign map[int]int, slice map[int]bool,
	replicable bool, edges []crossEdge, condQueues []int) (*isa.Program, error) {

	name := fmt.Sprintf("%s.t%d", l.Name, th)
	g := newEmitter(name)
	b := g.b

	local := map[int]bool{}
	for _, n := range l.Body {
		t, repl := threadOf(n.ID, assign, slice, replicable)
		if repl || t == th {
			local[n.ID] = true
		}
	}

	// Queue lookup for this stage: which cross edges it produces, and
	// which it consumes (edges carry their consuming stage).
	produces := map[int][]crossEdge{} // src node -> edges (this stage is source)
	consumesDirect := []crossEdge{}
	consumesCarried := []crossEdge{}
	for _, e := range edges {
		switch {
		case local[e.src]:
			produces[e.src] = append(produces[e.src], e)
		case e.dest == th:
			if e.carried {
				consumesCarried = append(consumesCarried, e)
			} else {
				consumesDirect = append(consumesDirect, e)
			}
		}
	}
	sort.Slice(consumesDirect, func(i, j int) bool { return consumesDirect[i].queue < consumesDirect[j].queue })
	sort.Slice(consumesCarried, func(i, j int) bool { return consumesCarried[i].queue < consumesCarried[j].queue })

	var bodyNodes []*ir.Node
	for _, n := range l.Body {
		if !local[n.ID] {
			continue
		}
		bodyNodes = append(bodyNodes, n)
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
	for _, e := range consumesDirect {
		b.Consume(g.regOf[e.src], e.queue)
	}
	if err := g.body(bodyNodes); err != nil {
		return nil, err
	}

	// Produces go at the end of the body, in queue order: a produce stalls
	// issue until its operand is ready, so emitting it mid-body would
	// serialize the independent work behind it on the in-order core.
	var sends []crossEdge
	for _, n := range bodyNodes {
		sends = append(sends, produces[n.ID]...)
	}
	sort.Slice(sends, func(i, j int) bool { return sends[i].queue < sends[j].queue })
	for _, e := range sends {
		b.Produce(e.queue, g.regOf[e.src])
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
	for _, e := range consumesCarried {
		g.importCarried(e.src, func(dst isa.Reg) { b.Consume(dst, e.queue) })
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

// scheduleASAP orders body nodes by earliest-start level over local
// same-iteration dependence chains, interleaving independent chains so
// the in-order pipeline can hide operation latency. Dependences are
// preserved: a consumer's level always exceeds its producer's.
func scheduleASAP(nodes []*ir.Node, local map[int]bool) []*ir.Node {
	level := make(map[int]int, len(nodes))
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
	out := append([]*ir.Node(nil), nodes...)
	sort.SliceStable(out, func(i, j int) bool {
		li, lj := level[out[i].ID], level[out[j].ID]
		if li != lj {
			return li < lj
		}
		return out[i].ID < out[j].ID
	})
	return out
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
// the thread name stays out of the struct for the same reason.
type emitter struct {
	b        *asm.Builder
	next     isa.Reg         // r0 is never allocated
	regOf    map[int]isa.Reg // node values: local results and direct imports
	carryReg map[carryKey]isa.Reg
	constReg map[int64]isa.Reg
	carried  []carryKey // carryReg's keys in prologue order, set by prolog
}

func newEmitter(name string) emitter {
	return emitter{
		b:        asm.NewBuilder(name),
		next:     1,
		regOf:    map[int]isa.Reg{},
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
func (g *emitter) assign(nodes []*ir.Node, local map[int]bool) {
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
				if _, ok := g.regOf[a.Node.ID]; !ok {
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
	vals := make([]int64, 0, len(g.constReg))
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
func (g *emitter) refresh(local map[int]bool) {
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
	assign := map[int]int{}
	for _, n := range l.Body {
		assign[n.ID] = 0
	}
	return generate(l, 0, 1, assign, map[int]bool{}, false, nil, nil)
}
