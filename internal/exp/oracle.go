package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/interp"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
	"hfstream/internal/workloads"
)

// The benchmark cache memoizes, per benchmark name, what every simulation
// of that benchmark reads and none writes: the input image (what Setup
// writes), the oracle image (what the functional interpreter makes of it)
// and the programs of each pipeline shape (what plan partitions the loop
// into). All are pure functions of the name and shape — Setup, the
// interpreter and the partitioners are deterministic — so one build per
// process suffices however many simulations run, and all are built from
// the benchmark's one shared instance (workloads.Shared), which nothing
// writes.
// A run takes a copy-on-write fork of the input, which costs it only the
// pages it writes; the oracle is such a fork too. The programs are shared
// as they are: Execute validates and reads them, the software-queue
// lowering builds new ones and the cores predecode into their own tables
// (TestPlansStayReadOnly). Entries are created under a mutex and each
// part is computed under its own sync.Once, so concurrent runner workers
// asking for the same benchmark share a single build and block only on
// that part of that benchmark's entry, never on the whole cache.

type benchEntry struct {
	once sync.Once
	base *mem.Memory // input image: never written after Setup, only forked
	img  *mem.Memory // oracle image: a fork of base after the interpreter ran
	err  error

	// plans holds each pipeline shape's programs, indexed by core count
	// and then by chain (0) or parallel stage (1).
	plans [design.MaxCores + 1][2]planEntry
}

// planEntry is one shape's programs, or the reason the benchmark cannot
// take that shape; either is computed once.
type planEntry struct {
	once  sync.Once
	progs []*isa.Program
	err   error
}

var benchCache = struct {
	sync.Mutex
	m map[string]*benchEntry
}{m: make(map[string]*benchEntry)}

// oracleRuns counts functional-interpreter executions and planRuns
// partitions; the regression tests assert one per benchmark, and one per
// benchmark and shape, per process.
var oracleRuns, planRuns atomic.Uint64

// resetBenchCache drops all memoized images and programs (tests only).
func resetBenchCache() {
	benchCache.Lock()
	benchCache.m = make(map[string]*benchEntry)
	oracleRuns.Store(0)
	planRuns.Store(0)
	benchCache.Unlock()
}

// entry returns the benchmark's cache entry, creating it empty on first
// use.
func entry(name string) *benchEntry {
	benchCache.Lock()
	defer benchCache.Unlock()
	e := benchCache.m[name]
	if e == nil {
		e = &benchEntry{}
		benchCache.m[name] = e
	}
	return e
}

// images returns the benchmark's cache entry with its images built.
func images(name string) *benchEntry {
	e := entry(name)
	e.once.Do(func() {
		b, err := workloads.Shared(name)
		if err != nil {
			e.err = err
			return
		}
		e.base, e.img, e.err = computeOracle(b)
	})
	return e
}

// plan returns the programs that realize the shape cfg describes on
// benchmark b (see partition), built once per process from the
// benchmark's shared instance and shared read-only by every run of that
// shape. Only cfg.Cores and cfg.Parallel select the programs.
func plan(b *workloads.Benchmark, cfg design.Config) ([]*isa.Program, error) {
	n := cfg.Cores
	switch {
	case n < 1 || n > design.MaxCores:
		return nil, fmt.Errorf("core count %d out of range 1..%d", n, design.MaxCores)
	case cfg.Parallel && n < 3:
		return nil, fmt.Errorf("parallel-stage designs need Cores >= 3 (got %d)", n)
	}
	shape := 0
	if cfg.Parallel {
		shape = 1
	}
	e := entry(b.Name)
	p := &e.plans[n][shape]
	p.once.Do(func() {
		planRuns.Add(1)
		sb, err := workloads.Shared(b.Name)
		if err != nil {
			p.err = err
			return
		}
		p.progs, p.err = partition(sb, n, cfg.Parallel)
	})
	return p.progs, p.err
}

// partition turns a pipeline shape into the programs that realize it: one
// core runs the unpartitioned loop, two the benchmark's own pipeline
// (DSWP's two stages, or bzip2's hand partition), n >= 3 an n-stage DSWP
// chain, and parallel n-1 replicated workers plus a merger.
func partition(b *workloads.Benchmark, n int, parallel bool) ([]*isa.Program, error) {
	switch {
	case n == 1:
		p, err := b.Single()
		return []*isa.Program{p}, err
	case n == 2:
		pair, _, err := b.Pipelined()
		return pair[:], err
	case b.Loop == nil:
		return nil, fmt.Errorf("hand-partitioned; %d-core shapes need an IR kernel", n)
	}
	var pr *dswp.Result
	var err error
	if parallel {
		pr, err = dswp.PartitionParallel(b.Loop, n-1)
	} else {
		pr, err = dswp.PartitionN(b.Loop, n)
	}
	if err != nil {
		return nil, err
	}
	return pr.Threads, nil
}

// Expected returns the oracle memory image for b: the single-threaded
// program run to completion on the functional interpreter. The image is
// memoized per benchmark name and shared across goroutines; callers must
// treat it as read-only.
func Expected(b *workloads.Benchmark) (*mem.Memory, error) {
	e := images(b.Name)
	return e.img, e.err
}

// computeOracle builds both images from the benchmark's shared instance,
// which it only reads.
func computeOracle(b *workloads.Benchmark) (base, oracle *mem.Memory, err error) {
	prog, err := b.Single()
	if err != nil {
		return nil, nil, err
	}
	base = mem.New()
	b.Setup(base)
	oracle = base.Fork()
	oracleRuns.Add(1)
	m := interp.New(oracle, prog)
	if err := m.Run(0); err != nil {
		return nil, nil, fmt.Errorf("exp: %s oracle: %w", b.Name, err)
	}
	return base, oracle, nil
}
