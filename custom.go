package hfstream

import (
	"context"
	"fmt"
	"sort"

	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/interp"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/queue"
	"hfstream/internal/sim"
)

// Program is an assembled streaming kernel thread.
type Program struct {
	p *isa.Program
}

// CompileAsm assembles a custom kernel from assembly text. The syntax
// follows the disassembler with symbolic labels:
//
//	loop:
//	    ld      r2, [r1+0]
//	    addi    r1, r1, 8
//	    produce q0, r2
//	    bnez    r2, loop
//	    halt
//
// Registers are r0-r63; produce/consume name queues q0-q63; memory
// operands are written [reg+disp]. Programs for the EXISTING and MEMOPTI
// design points are lowered to software-queue sequences automatically by
// RunPrograms, which claims scratch registers from the top of the file
// (r50 and above must stay free).
func CompileAsm(name, src string) (*Program, error) {
	p, err := asm.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Disassemble returns the program listing.
func (p *Program) Disassemble() string { return p.p.String() }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.p.Instrs) }

// CustomRun is the outcome of RunPrograms, giving access to the final
// memory image alongside the usual result.
type CustomRun struct {
	Result
	image *mem.Memory
}

// Read returns the 8-byte word at addr in the final memory image.
func (c *CustomRun) Read(addr uint64) uint64 { return c.image.Read8(addr) }

// maxCustomCores is the largest machine RunPrograms can build. Queue
// routing no longer relies on the implicit dual-core peer mapping: each
// queue's producer/consumer cores are derived by a static scan of the
// programs and handed to the fabric as explicit routes, so any core
// count up to the cap works. The cap itself just bounds the machines the
// experiment layer is calibrated for.
const maxCustomCores = design.MaxCores

// CoreCountError reports a RunPrograms call with more programs than the
// design point's machine has cores for.
type CoreCountError struct {
	// Programs is the number of programs passed; Max is the largest
	// supported machine.
	Programs, Max int
}

// Error implements error.
func (e *CoreCountError) Error() string {
	return fmt.Sprintf("hfstream: %d programs, but custom machines have at most %d cores (queue routes are auto-derived for any core count up to the cap)",
		e.Programs, e.Max)
}

// MPMCUnsupportedError reports a workload whose statically derived queue
// topology needs multi-producer/multi-consumer semantics on a design
// point that cannot provide them: the SYNCOPTI in-memory queue
// controller assigns slots from per-core cumulative produce/consume
// counters, which collide as soon as a queue has more than one endpoint
// on either side. Realize the topology as SPSC lanes instead (the DSWP
// parallel-stage partitioner does exactly that), or run it on the
// software-queue or HEAVYWT designs, which implement the ticket
// discipline natively.
type MPMCUnsupportedError struct {
	Design string
	Queues []int // MPMC queue IDs, ascending
}

// Error implements error.
func (e *MPMCUnsupportedError) Error() string {
	return fmt.Sprintf("hfstream: design %s cannot serve MPMC queues %v (per-core slot counters collide); use software queues, HEAVYWT, or SPSC lanes",
		e.Design, e.Queues)
}

// deriveRoles statically scans the programs and returns, per queue, the
// producing and consuming thread sets in ascending order — the same
// derivation the functional interpreter uses, so the simulated machine
// and its oracle always agree on the topology.
func deriveRoles(progs []*isa.Program) map[int]queue.MPMCRoute {
	roles := map[int]queue.MPMCRoute{}
	add := func(s []int, t int) []int {
		i := sort.SearchInts(s, t)
		if i < len(s) && s[i] == t {
			return s
		}
		s = append(s, 0)
		copy(s[i+1:], s[i:])
		s[i] = t
		return s
	}
	for t, p := range progs {
		for _, in := range p.Instrs {
			switch in.Op {
			case isa.Produce:
				r := roles[in.Q]
				r.Producers = add(r.Producers, t)
				roles[in.Q] = r
			case isa.Consume:
				r := roles[in.Q]
				r.Consumers = add(r.Consumers, t)
				roles[in.Q] = r
			}
		}
	}
	return roles
}

// memRoutes converts derived roles into the fabric's SPSC route table
// (indexed by queue ID). MPMC queues get their first endpoints: on the
// software-queue designs the route only steers the write-forward
// destination — a performance hint; correctness comes from coherence.
func memRoutes(roles map[int]queue.MPMCRoute) []memsys.QueueRoute {
	maxQ := -1
	for q := range roles {
		if q > maxQ {
			maxQ = q
		}
	}
	routes := make([]memsys.QueueRoute, maxQ+1)
	for i := range routes {
		routes[i] = memsys.QueueRoute{Producer: 0, Consumer: 1}
	}
	for q, r := range roles {
		rt := memsys.QueueRoute{Producer: 0, Consumer: 1}
		if len(r.Producers) > 0 {
			rt.Producer = r.Producers[0]
		}
		if len(r.Consumers) > 0 {
			rt.Consumer = r.Consumers[0]
		}
		routes[q] = rt
	}
	return routes
}

// RunPrograms executes custom kernel threads (one per core, up to
// maxCustomCores) on the given design point. init seeds the functional
// memory image before execution. It returns a *CoreCountError when progs
// exceeds the machine's core count; a lowering failure anywhere in the
// slice fails the call before anything runs.
func RunPrograms(d Design, progs []*Program, init map[uint64]uint64) (*CustomRun, error) {
	return RunProgramsCtx(context.Background(), d, progs, init)
}

// RunProgramsCtx is RunPrograms with cancellation and per-run options
// (tracing, metrics, progress, fault injection). The run aborts with a
// *CanceledError once ctx is done, so a deadlocked custom kernel cannot
// outlive its caller's deadline.
func RunProgramsCtx(ctx context.Context, d Design, progs []*Program, init map[uint64]uint64, opts ...RunOpt) (*CustomRun, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("hfstream: no programs")
	}
	if len(progs) > maxCustomCores {
		return nil, &CoreCountError{Programs: len(progs), Max: maxCustomCores}
	}
	raw := make([]*isa.Program, len(progs))
	for i, p := range progs {
		raw[i] = p.p
	}
	roles := deriveRoles(raw)
	mpmc := map[int]queue.MPMCRoute{}
	for q, r := range roles {
		if r.IsMPMC() {
			mpmc[q] = r
		}
	}
	simCfg := d.cfg.SimConfig()
	if len(mpmc) > 0 {
		switch {
		case d.cfg.SoftwareQueues():
			// Handled per-program by the role-aware lowering below.
		case simCfg.UseSyncArray:
			simCfg.SA.MPMC = mpmc
		case simCfg.Mem.HWQueues:
			qs := make([]int, 0, len(mpmc))
			for q := range mpmc {
				qs = append(qs, q)
			}
			sort.Ints(qs)
			return nil, &MPMCUnsupportedError{Design: d.Name(), Queues: qs}
		}
	}
	// The dual-core machine keeps the implicit peer mapping (and its
	// byte-identical goldens); beyond it the fabric needs explicit routes.
	if len(progs) > 2 && len(roles) > 0 {
		simCfg.Mem.QueueRoutes = memRoutes(roles)
	}
	// Lower every program before building the machine, so a failure on a
	// later program cannot leave a half-constructed run behind.
	lowered := make([]*isa.Program, len(progs))
	for i, p := range progs {
		lowered[i] = p.p
		if d.cfg.SoftwareQueues() {
			var err error
			lowered[i], err = lower.LowerRoles(p.p, d.cfg.Layout(), i, mpmc)
			if err != nil {
				return nil, fmt.Errorf("hfstream: program %d: %w", i, err)
			}
		}
	}
	image := mem.New()
	for a, v := range init {
		image.Write8(a, v)
	}
	threads := make([]sim.Thread, len(lowered))
	for i, ip := range lowered {
		threads[i] = sim.Thread{Prog: ip}
	}
	o := gatherOpts(opts)
	o.expOpts().Apply(&simCfg)
	simCfg.Cancel = ctx.Done()
	res, err := sim.Run(simCfg, image, threads)
	if err != nil {
		return nil, err
	}
	out, err := finishRun(res, "custom", d.Name(), o)
	if err != nil {
		return nil, err
	}
	return &CustomRun{Result: out, image: image}, nil
}

// Interpret runs the programs on the timing-free functional interpreter
// (unbounded queues) and returns the final memory image reader. It is the
// oracle RunPrograms results can be compared against.
func Interpret(progs []*Program, init map[uint64]uint64) (func(addr uint64) uint64, error) {
	image := mem.New()
	for a, v := range init {
		image.Write8(a, v)
	}
	raw := make([]*isa.Program, len(progs))
	for i, p := range progs {
		raw[i] = p.p
	}
	m := interp.New(image, raw...)
	if err := m.Run(0); err != nil {
		return nil, err
	}
	return image.Read8, nil
}
