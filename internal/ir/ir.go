// Package ir defines the loop intermediate representation workload kernels
// are written in. A Loop is a flat dataflow body with loop-carried
// dependences, memory accesses tagged with their region, and an exit
// condition; the DSWP partitioner (package dswp) turns it into pipelined
// thread programs, and the same code generator emits the single-threaded
// baseline.
package ir

import (
	"fmt"

	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// Node is one operation of the loop body. Its value is a 64-bit word
// recomputed every iteration.
type Node struct {
	ID   int
	Op   isa.Op // the operation to emit (MovI for constants)
	Args []Operand
	// Region tags memory accesses (Op == Ld or St) for dependence
	// analysis; nil for non-memory nodes.
	Region *mem.Region
	// Off is the immediate displacement for memory accesses.
	Off int64
}

// Operand is one input of a node.
type Operand struct {
	// Node is the producing node; nil for constants.
	Node *Node
	// Const is the constant value when Node is nil, or the immediate for
	// imm-variant opcodes.
	Const int64
	// Carried marks a loop-carried use: the value of Node from the
	// previous iteration (Init in iteration zero).
	Carried bool
	// Init is the iteration-zero value of a carried operand.
	Init int64
}

// Loop is a single-level loop kernel.
type Loop struct {
	Name string
	Body []*Node

	// Exit is the node whose value controls the loop: the loop continues
	// while Exit's value is non-zero. The body always executes at least
	// once (do-while form).
	Exit *Node

	// Pins constrains the partitioner: node ID -> pipeline stage. Used to
	// match a kernel's published partition when the cost model would
	// choose differently (the paper's compiler exposed the same knob).
	Pins map[int]int

	nextID int
}

// Pin forces a node into the given pipeline stage during partitioning.
func (l *Loop) Pin(n *Node, stage int) {
	if l.Pins == nil {
		l.Pins = map[int]int{}
	}
	l.Pins[n.ID] = stage
}

// NewLoop creates an empty loop.
func NewLoop(name string) *Loop { return &Loop{Name: name} }

// add appends a node to the body.
func (l *Loop) add(n *Node) *Node {
	n.ID = l.nextID
	l.nextID++
	l.Body = append(l.Body, n)
	return n
}

// Op appends a generic operation node.
func (l *Loop) Op(op isa.Op, args ...Operand) *Node {
	return l.add(&Node{Op: op, Args: args})
}

// Load appends a load of region[addr + off].
func (l *Loop) Load(region *mem.Region, addr Operand, off int64) *Node {
	return l.add(&Node{Op: isa.Ld, Args: []Operand{addr}, Region: region, Off: off})
}

// Store appends a store of val to region[addr + off]. Stores produce no
// value.
func (l *Loop) Store(region *mem.Region, addr Operand, off int64, val Operand) *Node {
	return l.add(&Node{Op: isa.St, Args: []Operand{addr, val}, Region: region, Off: off})
}

// Counter appends an induction node: value init on iteration 0, previous
// value + step afterwards. The node's value is the *updated* counter (so
// it counts 1, 2, 3, ... for init 0, step 1 when used directly).
func (l *Loop) Counter(init, step int64) *Node {
	n := l.add(&Node{Op: isa.AddI})
	n.Args = []Operand{{Node: n, Carried: true, Init: init}, {Const: step}}
	return n
}

// Acc appends an accumulator node: value = op(x, previous value), with
// the given initial value (e.g. Add for a running sum, Xor for a rolling
// checksum). The self-dependence forms its own SCC, anchoring the node in
// the pipeline stage that owns downstream work.
func (l *Loop) Acc(op isa.Op, x Operand, init int64) *Node {
	n := l.add(&Node{Op: op})
	n.Args = []Operand{x, {Node: n, Carried: true, Init: init}}
	return n
}

// V wraps a node as a same-iteration operand.
func V(n *Node) Operand { return Operand{Node: n} }

// C wraps a constant operand.
func C(v int64) Operand { return Operand{Const: v} }

// Carried wraps a loop-carried use of n with the given initial value.
func Carried(n *Node, init int64) Operand {
	return Operand{Node: n, Carried: true, Init: init}
}

// SetExit designates the loop-continuation condition node.
func (l *Loop) SetExit(n *Node) { l.Exit = n }

// Validate checks structural invariants: exit set, each node's ID is its
// body position (as the builder methods assign them), operands belong to
// the body, memory nodes have regions. Passes over a valid loop may index
// per-node tables by ID.
func (l *Loop) Validate() error {
	if l.Exit == nil {
		return fmt.Errorf("ir: loop %s has no exit condition", l.Name)
	}
	for p, n := range l.Body {
		if n.ID != p {
			return fmt.Errorf("ir: loop %s node %d sits at body position %d", l.Name, n.ID, p)
		}
	}
	if !l.has(l.Exit) {
		return fmt.Errorf("ir: loop %s exit node not in body", l.Name)
	}
	for _, n := range l.Body {
		if (n.Op == isa.Ld || n.Op == isa.St) && n.Region == nil {
			return fmt.Errorf("ir: loop %s node %d: memory op without region", l.Name, n.ID)
		}
		for _, a := range n.Args {
			if a.Node != nil && !l.has(a.Node) {
				return fmt.Errorf("ir: loop %s node %d: operand references foreign node %d",
					l.Name, n.ID, a.Node.ID)
			}
			if a.Node != nil && !a.Carried && a.Node.ID >= n.ID {
				return fmt.Errorf("ir: loop %s node %d: non-carried operand references later node %d (body must be topological)",
					l.Name, n.ID, a.Node.ID)
			}
		}
	}
	return nil
}

// has reports whether n is a node of the body.
func (l *Loop) has(n *Node) bool {
	return n.ID >= 0 && n.ID < len(l.Body) && l.Body[n.ID] == n
}

// Weight estimates a node's per-iteration cycle cost for partition
// balancing.
func (n *Node) Weight() int {
	switch n.Op {
	case isa.Ld:
		return 3 // average of L1 hits and occasional misses
	case isa.St:
		return 1
	default:
		return n.Op.Latency()
	}
}
