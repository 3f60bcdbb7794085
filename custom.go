package hfstream

import (
	"context"
	"fmt"

	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/interp"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
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

// maxCustomCores is the largest machine RunPrograms can build. A
// dual-core run routes its queues by the fabric's implicit peer mapping
// (each core's peer is the other), as the benchmarks' pipelines do. Past
// two cores exp.Execute derives each queue's producer/consumer cores by a
// static scan of the programs and hands them to the fabric as explicit
// routes, so any core count up to the cap works. The cap itself just
// bounds the machines the experiment layer is calibrated for.
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

// RunPrograms executes custom kernel threads (one per core, up to
// maxCustomCores) on the given design point. init seeds the functional
// memory image before execution. It returns a *CoreCountError when progs
// exceeds the machine's core count, a *ValidationError for a program
// that can run past its last instruction (end it with halt or b), and a
// *MPMCUnsupportedError for a queue with several producers or consumers on
// a design that cannot serve one; a lowering failure anywhere in the slice
// fails the call before anything runs.
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
	image := mem.New()
	for a, v := range init {
		image.Write8(a, v)
	}
	o := gatherOpts(opts)
	res, err := exp.Execute(ctx, d.cfg, raw, image, nil, o.RunOpts)
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
// oracle RunPrograms results can be compared against, and rejects the
// same programs that can run past their last instruction.
func Interpret(progs []*Program, init map[uint64]uint64) (func(addr uint64) uint64, error) {
	image := mem.New()
	for a, v := range init {
		image.Write8(a, v)
	}
	raw := make([]*isa.Program, len(progs))
	for i, p := range progs {
		if err := p.p.CheckEnd(); err != nil {
			return nil, fmt.Errorf("hfstream: program %d: %w", i, err)
		}
		raw[i] = p.p
	}
	m := interp.New(image, raw...)
	if err := m.Run(0); err != nil {
		return nil, err
	}
	return image.Read8, nil
}
