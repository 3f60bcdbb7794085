package hfstream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"hfstream/internal/workloads"
)

// Spec describes one simulation request as plain data: which benchmark,
// which design point, and which run mode. It is the request schema of the
// serve package and the unit of result caching. Canonical renders a
// normalized byte form (names resolved to their canonical labels, zero
// fields dropped, fixed field order) and Key hashes it, so two Specs that
// mean the same run always produce the same key. The simulator is
// deterministic end to end (see RESILIENCE.md), so a Spec's key fully
// determines its metrics output — the property that makes caching served
// results sound.
type Spec struct {
	// Bench names the workload (see BenchmarkByName).
	Bench string `json:"bench"`
	// Design names the design point (see DesignByName), and with it the
	// core count: "HEAVYWT" is the paper's dual-core machine,
	// "HEAVYWT_3CORE" its three-stage retargeting. Required unless Single
	// is set, in which case it must be empty: the single-threaded baseline
	// always runs on the EXISTING machine, and silently accepting a design
	// would alias two different-looking requests.
	Design string `json:"design,omitempty"`
	// Single runs the unpartitioned single-threaded baseline instead of
	// the pipelined version.
	Single bool `json:"single,omitempty"`
}

// Normalize validates the spec and returns a copy with every name
// resolved to its canonical label, so that any two specs describing the
// same run normalize to identical values.
func (s Spec) Normalize() (Spec, error) {
	// A benchmark has one spelling, so checking the name is all of its
	// normalization; RunCtx builds the benchmark, a key never needs it.
	if err := workloads.Check(s.Bench); err != nil {
		return Spec{}, err
	}
	if s.Single {
		if s.Design != "" {
			return Spec{}, fmt.Errorf("hfstream: single-threaded spec must not name a design (got %q; the baseline always runs on EXISTING)", s.Design)
		}
		return s, nil
	}
	d, err := DesignByName(s.Design)
	if err != nil {
		return Spec{}, err
	}
	s.Design = d.Name()
	return s, nil
}

// Canonical returns the spec's canonical byte form: the normalized spec
// marshaled as compact JSON with struct-declaration field order. Two
// specs describing the same run — whatever field order, name alias or
// explicit zero value they were written with — canonicalize to the same
// bytes.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Key returns the spec's content address: the lowercase hex SHA-256 of
// its canonical form. Because the simulator is deterministic, the key
// fully determines the run's metrics snapshot.
func (s Spec) Key() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	if k, ok := specKeys.load(n); ok {
		return k, nil
	}
	c, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	k := hex.EncodeToString(sum[:])
	specKeys.store(n, k)
	return k, nil
}

// keyMemoCap bounds the key memo. Normalize admits catalog benchmark names
// and canonical design names up to MaxCores, which is 684 specs, except that
// "NETQUEUE_<h>hop" takes any hop count; past the cap a key is computed and
// not kept, so no sequence of requests can grow the memo further.
const keyMemoCap = 4096

// specKeys memoizes Key per normalized Spec, because every served request,
// sweep cell and peer PUT derives a key, nearly always for a spec seen
// before. It holds only what Key would compute, so no caller can tell it
// is there.
var specKeys keyMemo

type keyMemo struct {
	mu sync.RWMutex
	m  map[Spec]string
}

func (m *keyMemo) load(n Spec) (string, bool) {
	m.mu.RLock()
	k, ok := m.m[n]
	m.mu.RUnlock()
	return k, ok
}

func (m *keyMemo) store(n Spec, k string) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[Spec]string)
	}
	if len(m.m) < keyMemoCap {
		m.m[n] = k
	}
	m.mu.Unlock()
}

// RunCtx executes the described run: RunSingleThreadedCtx for Single,
// and otherwise RunCtx on the normalized design, which alone says how many
// cores the pipeline spans. Options pass through unchanged, so a Spec
// round-tripped through the serve package produces byte-identical
// WithMetrics output to calling the API directly.
func (s Spec) RunCtx(ctx context.Context, opts ...RunOpt) (Result, error) {
	n, err := s.Normalize()
	if err != nil {
		return Result{}, err
	}
	b, err := BenchmarkByName(n.Bench)
	if err != nil {
		return Result{}, err
	}
	if n.Single {
		return RunSingleThreadedCtx(ctx, b, opts...)
	}
	d, err := DesignByName(n.Design)
	if err != nil {
		return Result{}, err
	}
	return RunCtx(ctx, b, d, opts...)
}
