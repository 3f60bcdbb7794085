// Package workloads defines the paper's nine benchmark loops (Table 1 and
// the two StreamIt kernels) as loop-IR kernels whose instruction mix,
// communication frequency and memory behaviour match the published
// characterization: communication once every 5-20 dynamic application
// instructions, FP-heavy StreamIt/art/equake kernels, pointer-chasing
// memory-bound mcf, and bzip2's two-deep loop nest with inter-thread
// communication at both levels.
//
// The original SPEC/Mediabench sources and the authors' DSWP-modified
// OpenIMPACT compiler are not available; these kernels are the synthetic
// equivalents documented in DESIGN.md. Eight are partitioned by the
// package dswp implementation; bzip2's nested loop is hand-partitioned
// (as the paper's StreamIt codes were).
package workloads

import (
	"fmt"
	"math"
	"strings"

	"hfstream/internal/dswp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// Benchmark is one workload: a loop kernel plus its data environment.
type Benchmark struct {
	Name     string
	Suite    string
	Function string
	// ExecPct is the fraction of whole-program execution time the paper
	// attributes to this loop (Table 1).
	ExecPct int
	// Iterations is the simulated loop trip count.
	Iterations int

	// Loop is the IR kernel; nil for hand-partitioned benchmarks.
	Loop *ir.Loop

	// Out is the region whose final contents define correctness.
	Out mem.Region
	// InputRegions lists the benchmark's data regions; the harness
	// preloads them into the cache hierarchy so measurements reflect the
	// paper's warmed, steady-state loops rather than compulsory misses.
	// Regions larger than a cache keep their natural miss behaviour
	// (mcf's 4MB pool still runs out of the L3/memory).
	InputRegions []mem.Region

	setup func(img *mem.Memory)
	hand  *handPartition
}

// handPartition carries pre-built thread programs for kernels the IR
// cannot express (bzip2's nested loop).
type handPartition struct {
	threads [2]*isa.Program
	single  *isa.Program
	queues  int
}

// Setup writes the benchmark's input data into the image.
func (b *Benchmark) Setup(img *mem.Memory) {
	if b.setup != nil {
		b.setup(img)
	}
}

// Pipelined returns the two-thread pipelined programs (with
// produce/consume instructions) and the number of queues used.
func (b *Benchmark) Pipelined() ([2]*isa.Program, int, error) {
	if b.hand != nil {
		return b.hand.threads, b.hand.queues, nil
	}
	res, err := dswp.Partition(b.Loop)
	if err != nil {
		return [2]*isa.Program{}, 0, fmt.Errorf("workloads: %s: %w", b.Name, err)
	}
	return [2]*isa.Program{res.Threads[0], res.Threads[1]}, res.QueueCount, nil
}

// Single returns the single-threaded version of the kernel (the Figure 9
// baseline).
func (b *Benchmark) Single() (*isa.Program, error) {
	if b.hand != nil {
		return b.hand.single, nil
	}
	p, err := dswp.Single(b.Loop)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", b.Name, err)
	}
	return p, nil
}

// catalog is the nine benchmarks in the paper's figure order. A name is
// answered from it without building anything; a build function constructs
// the loop IR, allocator and setup closure of its benchmark, which is the
// expensive part (tens of allocations each).
var catalog = [...]struct {
	name  string
	build func() *Benchmark
}{
	{"art", buildArt},
	{"equake", buildEquake},
	{"mcf", buildMcf},
	{"bzip2", buildBzip2},
	{"adpcmdec", buildAdpcmdec},
	{"epicdec", buildEpicdec},
	{"wc", buildWc},
	{"fir", buildFir},
	{"fft2", buildFft2},
}

// Names returns the benchmark names in the paper's figure order, the
// order of All, without building a benchmark.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

// lookup finds the named benchmark's build function without calling it;
// the error lists the valid names.
func lookup(name string) (func() *Benchmark, error) {
	for _, e := range catalog {
		if e.name == name {
			return e.build, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (have: %s)", name, strings.Join(Names(), " "))
}

// Check returns nil when name is a benchmark and ByName's error when it
// is not, without building a benchmark.
func Check(name string) error {
	_, err := lookup(name)
	return err
}

// ByName builds the named benchmark, or returns an error listing valid
// names. Every call returns a fresh instance, so concurrent users share
// no loop IR, program or setup closure.
func ByName(name string) (*Benchmark, error) {
	build, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// All builds the nine benchmarks in the paper's figure order.
func All() []*Benchmark {
	all := make([]*Benchmark, len(catalog))
	for i, e := range catalog {
		all[i] = e.build()
	}
	return all
}

// rng is a small deterministic xorshift64* generator so workload data is
// reproducible across runs and platforms.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// fbits returns the bit pattern of a random float in [lo, hi).
func (r *rng) fbits(lo, hi float64) uint64 {
	return math.Float64bits(lo + r.float()*(hi-lo))
}

// workload data lives above the program/result scratch space and well
// below the queue region.
const dataBase = 0x10_0000

func newAlloc() *mem.Allocator { return mem.NewAllocator(dataBase, 128) }
