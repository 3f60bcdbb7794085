package dswp

import (
	"fmt"
	"sort"

	"hfstream/internal/asm"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
)

// maxGenReg bounds code-generation register use so the software-queue
// lowering pass (which claims registers from the top of the file) never
// collides with generated code.
const maxGenReg = 50

// generate emits the program for one pipeline stage of the partition.
func generate(l *ir.Loop, th, stages int, assign map[int]int, slice map[int]bool,
	replicable bool, edges []crossEdge, condQueues []int) (*isa.Program, error) {

	name := fmt.Sprintf("%s.t%d", l.Name, th)
	b := asm.NewBuilder(name)

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

	// Register allocation. Carried values are keyed by (node, initial
	// value): two carried uses of the same node with different iteration-
	// zero values need distinct registers (they converge after the first
	// iteration but must not share an init).
	alloc := &regAlloc{next: 1}
	regOf := map[int]isa.Reg{} // node value (local or direct import)
	carryReg := map[carryKey]isa.Reg{}
	constReg := map[int64]isa.Reg{}

	needConst := func(v int64) {
		if _, ok := constReg[v]; !ok {
			constReg[v] = alloc.take()
		}
	}

	// Walk local nodes to decide what registers and constants we need.
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
	for _, n := range bodyNodes {
		if n.Op != isa.St {
			regOf[n.ID] = alloc.take()
		}
		for ai, a := range n.Args {
			switch {
			case a.Node == nil:
				if !immFoldable(n.Op, ai) {
					needConst(a.Const)
				}
			case a.Carried:
				k := carryKey{a.Node.ID, a.Init}
				if _, ok := carryReg[k]; !ok {
					carryReg[k] = alloc.take()
				}
			default:
				if !local[a.Node.ID] {
					if _, ok := regOf[a.Node.ID]; !ok {
						regOf[a.Node.ID] = alloc.take() // direct import target
					}
				}
			}
		}
	}
	condStreamed := condQueues != nil && !replicable
	condReg := isa.Reg(0)
	if condStreamed && !local[l.Exit.ID] {
		condReg = alloc.take()
	}
	if alloc.next > maxGenReg {
		return nil, fmt.Errorf("dswp: %s needs %d registers, limit %d", name, alloc.next, maxGenReg)
	}

	// Prologue: constants and carried initial values.
	constVals := make([]int64, 0, len(constReg))
	for v := range constReg {
		constVals = append(constVals, v)
	}
	sort.Slice(constVals, func(i, j int) bool { return constVals[i] < constVals[j] })
	for _, v := range constVals {
		b.MovI(constReg[v], v)
	}
	carryKeys := make([]carryKey, 0, len(carryReg))
	for k := range carryReg {
		carryKeys = append(carryKeys, k)
	}
	sort.Slice(carryKeys, func(i, j int) bool {
		if carryKeys[i].id != carryKeys[j].id {
			return carryKeys[i].id < carryKeys[j].id
		}
		return carryKeys[i].init < carryKeys[j].init
	})
	for _, k := range carryKeys {
		b.MovI(carryReg[k], k.init)
	}

	b.Label("loop")

	// Direct imports for this iteration.
	for _, e := range consumesDirect {
		b.Consume(regOf[e.src], e.queue)
	}

	// Body.
	operand := func(n *ir.Node, ai int) isa.Reg {
		a := n.Args[ai]
		switch {
		case a.Node == nil:
			return constReg[a.Const]
		case a.Carried:
			return carryReg[carryKey{a.Node.ID, a.Init}]
		default:
			return regOf[a.Node.ID]
		}
	}
	for _, n := range bodyNodes {
		if err := emitNode(b, n, regOf, operand); err != nil {
			return nil, err
		}
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
		b.Produce(e.queue, regOf[e.src])
	}
	if condStreamed && local[l.Exit.ID] {
		// The control owner feeds every other stage its copy.
		for t := 0; t < stages; t++ {
			if condQueues[t] >= 0 {
				b.Produce(condQueues[t], regOf[l.Exit.ID])
			}
		}
	}

	// End of body: refresh carried values for the next iteration. Local
	// sources copy from their result register; imported ones consume the
	// queue once and fan the value out to every carry register of that
	// source.
	for _, k := range carryKeys {
		if local[k.id] {
			b.Mov(carryReg[k], regOf[k.id])
		}
	}
	for _, e := range consumesCarried {
		var regs []isa.Reg
		for _, k := range carryKeys {
			if k.id == e.src {
				regs = append(regs, carryReg[k])
			}
		}
		b.Consume(regs[0], e.queue)
		for _, r := range regs[1:] {
			b.Mov(r, regs[0])
		}
	}

	// Loop back-edge.
	switch {
	case local[l.Exit.ID]:
		b.Bnez(regOf[l.Exit.ID], "loop")
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

type regAlloc struct{ next isa.Reg }

func (r *regAlloc) take() isa.Reg {
	reg := r.next
	r.next++
	return reg
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

// emitNode lowers one IR node to an instruction.
func emitNode(b *asm.Builder, n *ir.Node, regOf map[int]isa.Reg, operand func(*ir.Node, int) isa.Reg) error {
	rd := regOf[n.ID]
	switch n.Op {
	case isa.MovI:
		b.MovI(rd, n.Args[0].Const)
	case isa.Mov, isa.I2F, isa.F2I:
		b.Emit(isa.Instr{Op: n.Op, Rd: rd, Ra: operand(n, 0)})
	case isa.AddI, isa.AndI, isa.ShlI, isa.ShrI:
		b.Emit(isa.Instr{Op: n.Op, Rd: rd, Ra: operand(n, 0), Imm: n.Args[1].Const})
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.And, isa.Or, isa.Xor,
		isa.CmpEQ, isa.CmpNE, isa.CmpLT,
		isa.FAdd, isa.FSub, isa.FMul, isa.FDiv:
		b.Emit(isa.Instr{Op: n.Op, Rd: rd, Ra: operand(n, 0), Rb: operand(n, 1)})
	case isa.Ld:
		b.Ld(rd, operand(n, 0), n.Off)
	case isa.St:
		b.St(operand(n, 0), n.Off, operand(n, 1))
	default:
		return fmt.Errorf("dswp: node %d: unsupported op %v", n.ID, n.Op)
	}
	return nil
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
