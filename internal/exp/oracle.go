package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hfstream/internal/interp"
	"hfstream/internal/mem"
	"hfstream/internal/workloads"
)

// The image cache memoizes, per benchmark name, the two images every
// simulation of that benchmark needs: the input (what Setup writes) and the
// oracle (what the functional interpreter makes of it). Both are pure
// functions of the name — Setup and the interpreter are deterministic — so
// one build per process suffices however many simulations run. A run takes
// a copy-on-write fork of the input, which costs it only the pages it
// writes; the oracle is such a fork too. Entries are created under a mutex
// and computed under a sync.Once, so concurrent runner workers asking for
// the same benchmark share a single build and block only on that
// benchmark's entry, never on the whole cache.

type oracleEntry struct {
	once sync.Once
	base *mem.Memory // input image: never written after Setup, only forked
	img  *mem.Memory // oracle image: a fork of base after the interpreter ran
	err  error
}

var oracleCache = struct {
	sync.Mutex
	m map[string]*oracleEntry
}{m: make(map[string]*oracleEntry)}

// oracleRuns counts functional-interpreter executions; the regression
// tests assert exactly one per benchmark per process.
var oracleRuns atomic.Uint64

// resetOracleCache drops all memoized images (tests only).
func resetOracleCache() {
	oracleCache.Lock()
	oracleCache.m = make(map[string]*oracleEntry)
	oracleRuns.Store(0)
	oracleCache.Unlock()
}

// images returns the benchmark's cache entry, built on first use.
func images(name string) *oracleEntry {
	oracleCache.Lock()
	e := oracleCache.m[name]
	if e == nil {
		e = &oracleEntry{}
		oracleCache.m[name] = e
	}
	oracleCache.Unlock()
	e.once.Do(func() { e.base, e.img, e.err = computeOracle(name) })
	return e
}

// Expected returns the oracle memory image for b: the single-threaded
// program run to completion on the functional interpreter. The image is
// memoized per benchmark name and shared across goroutines; callers must
// treat it as read-only.
func Expected(b *workloads.Benchmark) (*mem.Memory, error) {
	e := images(b.Name)
	return e.img, e.err
}

// computeOracle builds both images from a fresh benchmark instance so they
// never share mutable state (programs, setup closures) with simulations of
// the same benchmark on sibling goroutines.
func computeOracle(name string) (base, oracle *mem.Memory, err error) {
	b, err := workloads.ByName(name)
	if err != nil {
		return nil, nil, err
	}
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
