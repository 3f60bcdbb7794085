// Package cluster is the service-tier chaos harness: it spins up real
// peered hfserve replicas on loopback listeners, injects seeded
// deterministic network faults (serve/faultnet) into both the
// replica-to-replica peering channels and the driving clients, and
// checks the service-tier robustness contract on every scenario:
//
//   - every request either returns byte-correct metrics (equal to the
//     fault-free library reference for its spec) or fails with a typed
//     error — never plausible-but-wrong bytes;
//   - zero poisoned cache entries: a post-run audit over clean channels
//     compares every replica's cached body against the reference;
//   - a dead or lying peer costs at most one extra local simulation per
//     (key, replica) — degradation, not amplification;
//   - under delay-class plans every request completes within the
//     latency bound (delay faults are survived, not surfaced).
//
// Everything derives from integer seeds — the replica fault plans, the
// driver fault plan, the retry jitter, and the request mix — so any
// failure replays bit-exactly from its (seed, plan) coordinates with
// the hfchaos -cluster command each failure prints.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"hfstream"
	"hfstream/chaos"
	"hfstream/serve"
	"hfstream/serve/client"
	scluster "hfstream/serve/cluster"
	"hfstream/serve/faultnet"
)

// Config parameterizes a service-tier chaos sweep.
type Config struct {
	// Seeds selects the scenarios; each seed derives its own fault plans,
	// request mix, and retry jitter.
	Seeds []int64
	// PlansPerSeed is the number of fault plans per seed on top of the
	// fault-free baseline (default 4: alternating delay- and loss-class).
	PlansPerSeed int
	// Replicas is the cluster size per scenario (default 3).
	Replicas int
	// Requests is the number of driver requests per scenario (default 24,
	// dealt round-robin to a small worker pool).
	Requests int
	// Timeout bounds one scenario's wall clock (default 60s); exceeding
	// it is a hang, which is always a failure.
	Timeout time.Duration
	// MaxLatency bounds each request on baseline and delay-class
	// scenarios (default 10s — far above the injected delays, far below
	// a hang).
	MaxLatency time.Duration
	// Progress, when non-nil, is called serially after every scenario.
	Progress func(done, total int, o chaos.Outcome)
}

// ClassLossSurvived is the one class this tier adds to chaos's: a loss
// plan under which every request came back byte-correct or as a typed
// error and the caches stayed clean. A baseline scenario is
// chaos.ClassBaselineOK, a delay one chaos.ClassDelayOK, a violation
// chaos.ClassFail.
const ClassLossSurvived = "loss-survived"

// universe is the spec mix every scenario draws requests from: two
// designs of one benchmark (peer-fill traffic between owners), a
// single-threaded baseline, and a second benchmark.
func universe() []hfstream.Spec {
	return []hfstream.Spec{
		{Bench: "bzip2", Design: "EXISTING"},
		{Bench: "bzip2", Design: "MEMOPTI"},
		{Bench: "bzip2", Single: true},
		{Bench: "adpcmdec", Design: "EXISTING"},
	}
}

// ReplicaPlan derives replica r's peering-channel fault plan for
// (seed, planIndex). Even indices are delay-class, odd loss-class —
// loss plans here may damage bodies, because every peering transfer is
// digest-protected. Exposed so replays and tests agree with the sweep.
func ReplicaPlan(seed int64, planIndex, replica int) faultnet.Plan {
	salt := seed*1000 + int64(planIndex)*10 + int64(replica) + 1
	if planIndex%2 == 0 {
		return faultnet.RandomDelay(salt, 3)
	}
	return faultnet.RandomLoss(salt)
}

// DriverPlan derives the shared driving-client fault plan. Loss-class
// driver plans draw only connection-level kinds (RandomDisconnect):
// the public /v1/run channel carries no digest, so a damaged-but-
// complete body there would be undetectable by design — the same
// reason the sim-tier taxonomy omits sa-data-delay.
func DriverPlan(seed int64, planIndex int) faultnet.Plan {
	salt := seed*1000 + int64(planIndex)*10 + 9
	if planIndex%2 == 0 {
		return faultnet.RandomDelay(salt, 2)
	}
	return faultnet.RandomDisconnect(salt)
}

// reference is one universe cell's fault-free ground truth.
type reference struct {
	spec hfstream.Spec
	key  string
	body []byte
}

// Sweep runs the (seed x plan) scenario grid through chaos.Run, one
// scenario at a time (each owns a whole cluster; running them in
// parallel would just contend), and returns the classified report. The
// error is Run's ctx.Err() or a setup problem; contract violations are
// per-outcome.
func Sweep(ctx context.Context, cfg Config) (*chaos.Report, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("cluster chaos: no seeds")
	}
	if cfg.PlansPerSeed == 0 {
		cfg.PlansPerSeed = 4
	}
	if cfg.Replicas <= 1 {
		cfg.Replicas = 3
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 24
	}
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 10 * time.Second
	}
	refs, err := references(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return &chaos.Report{}, ctx.Err()
		}
		return nil, err
	}
	var cases []chaos.Case
	for _, seed := range cfg.Seeds {
		for planIdx := -1; planIdx < cfg.PlansPerSeed; planIdx++ {
			cases = append(cases, chaos.Case{
				Outcome: chaos.Outcome{Seed: seed, PlanIndex: planIdx, Replicas: cfg.Replicas},
				Run:     func(ctx context.Context, o *chaos.Outcome) { runScenario(ctx, cfg, refs, o) },
			})
		}
	}
	return chaos.Run(ctx, cases, 1, cfg.Timeout, cfg.Progress)
}

// references computes the universe's fault-free ground truth once,
// through the library API — the same oracle /v1/run byte-equivalence is
// checked against in CI.
func references(ctx context.Context) ([]reference, error) {
	refs := make([]reference, 0, len(universe()))
	for _, spec := range universe() {
		norm, err := spec.Normalize()
		if err != nil {
			return nil, fmt.Errorf("cluster chaos: %w", err)
		}
		key, err := norm.Key()
		if err != nil {
			return nil, fmt.Errorf("cluster chaos: %w", err)
		}
		var buf bytes.Buffer
		if _, err := norm.RunCtx(ctx, hfstream.WithMetrics(&buf)); err != nil {
			return nil, fmt.Errorf("cluster chaos: reference for %s: %w", key, err)
		}
		refs = append(refs, reference{spec: norm, key: key, body: buf.Bytes()})
	}
	return refs, nil
}

// runScenario builds a fresh cluster with o's fault plans on its peering
// channels and its driver, runs the scenario against it, and tears
// everything down.
func runScenario(ctx context.Context, cfg Config, refs []reference, o *chaos.Outcome) {
	var planDesc []string
	lb, err := scluster.NewLoopback(cfg.Replicas, func(i int, pc *scluster.Config, sc *serve.Config) {
		sc.Workers = 2
		if o.PlanIndex >= 0 {
			plan := ReplicaPlan(o.Seed, o.PlanIndex, i)
			planDesc = append(planDesc, fmt.Sprintf("%s=%s", pc.Self, plan))
			pc.HTTPClient = faultnet.NewTransport(plan, &http.Transport{}).Client()
		}
	})
	if err != nil {
		o.Class, o.Detail = chaos.ClassFail, fmt.Sprintf("cluster: %v", err)
		return
	}
	defer func() {
		closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lb.Close(closeCtx)
	}()

	// One shared fault transport in front of every driver client, so
	// occurrence counting spans the whole request mix.
	driverHC := &http.Client{Transport: &http.Transport{}}
	if o.PlanIndex >= 0 {
		plan := DriverPlan(o.Seed, o.PlanIndex)
		planDesc = append(planDesc, "driver="+plan.String())
		driverHC = faultnet.NewTransport(plan, driverHC.Transport).Client()
	}
	defer driverHC.CloseIdleConnections()
	o.Plan = strings.Join(planDesc, " ")

	drive(ctx, cfg, refs, lb, driverHC, o)
}

// drive issues the scenario's request mix through driverHC and checks
// the contract on the answers and on what the cluster is left holding.
func drive(ctx context.Context, cfg Config, refs []reference, lb *scluster.Loopback, driverHC *http.Client, o *chaos.Outcome) {
	fail := func(format string, args ...interface{}) {
		o.Class = chaos.ClassFail
		o.Detail = fmt.Sprintf(format, args...)
	}
	n := len(lb.Replicas)

	// Seeded retries are the layer under test for absorbing transient
	// faults.
	clients := make([]*client.Client, n)
	for i, r := range lb.Replicas {
		clients[i] = client.New(r.URL,
			client.WithHTTPClient(driverHC),
			client.WithRetry(client.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   25 * time.Millisecond,
				MaxDelay:    250 * time.Millisecond,
				Seed:        o.Seed,
			}))
	}

	lossy := o.PlanIndex >= 0 && o.PlanIndex%2 == 1
	kind := "delay-class"
	if o.PlanIndex < 0 {
		kind = "baseline"
	}
	type result struct {
		ref     reference
		body    []byte
		err     error
		latency time.Duration
	}
	// Worker w issues requests w, w+workers, ... from its own seeded
	// stream, so every one of cfg.Requests goes out whatever the count.
	const workers = 4
	results := make([]result, cfg.Requests)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed*100 + int64(w)))
			for i := w; i < len(results); i += workers {
				ref := refs[rng.Intn(len(refs))]
				cl := clients[rng.Intn(n)]
				t0 := time.Now()
				res, err := cl.Run(ctx, ref.spec)
				r := result{ref: ref, err: err, latency: time.Since(t0)}
				if err == nil {
					r.body = res.Body
				}
				results[i] = r
			}
		}(w)
	}
	wg.Wait()
	for _, cl := range clients {
		o.Retries += cl.Retries()
	}
	if ctx.Err() != nil {
		// Cut short; chaos.Run tells a hang from a caller that gave up.
		fail("scenario cut short: %v", ctx.Err())
		return
	}

	// ---- the contract, request by request ---------------------------
	for i, r := range results {
		if r.err == nil {
			if !bytes.Equal(r.body, r.ref.body) {
				fail("request %d: silent corruption — %d bytes differ from the fault-free reference", i, len(r.body))
				return
			}
			if !lossy && r.latency > cfg.MaxLatency {
				fail("request %d: latency %v exceeds the %v bound on a %s scenario",
					i, r.latency.Round(time.Millisecond), cfg.MaxLatency, kind)
				return
			}
			continue
		}
		if !lossy {
			fail("request %d: error on a %s scenario: %v", i, kind, r.err)
			return
		}
		if !typedError(r.err) {
			fail("request %d: untyped error under a loss plan: %v", i, r.err)
			return
		}
		o.Errors++
	}

	// ---- post-run cache audit over clean channels -------------------
	for _, rp := range lb.Replicas {
		flushCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := rp.Peering.Flush(flushCtx)
		cancel()
		if err != nil {
			fail("flush %s: %v", rp.ID, err)
			return
		}
	}
	auditHC := &http.Client{Transport: &http.Transport{}}
	defer auditHC.CloseIdleConnections()
	for _, rp := range lb.Replicas {
		auditCl := client.New(rp.URL, client.WithHTTPClient(auditHC))
		for _, ref := range refs {
			got, err := auditCl.PeerGet(context.Background(), ref.key)
			if errors.Is(err, client.ErrNotCached) {
				continue // cold is clean
			}
			if err != nil {
				fail("audit %s key %s: %v", rp.ID, ref.key, err)
				return
			}
			if !bytes.Equal(got, ref.body) {
				fail("audit %s key %s: POISONED cache entry (%d bytes differ from reference)", rp.ID, ref.key, len(got))
				return
			}
		}
	}

	// ---- degradation bound ------------------------------------------
	// At worst every replica simulates every key locally once; a faulty
	// peer tier must never amplify compute beyond that.
	var runs uint64
	for _, rp := range lb.Replicas {
		runs += rp.Server.Metrics().Runs
	}
	if max := uint64(len(refs) * n); runs > max {
		fail("compute amplification: %d simulations across the cluster, bound is %d", runs, max)
		return
	}

	switch {
	case o.PlanIndex < 0:
		o.Class = chaos.ClassBaselineOK
	case lossy:
		o.Class = ClassLossSurvived
	default:
		o.Class = chaos.ClassDelayOK
	}
}

// typedError reports whether err is an acceptable failure shape under a
// loss plan: the typed API envelope, a digest-verification failure, a
// truncated stream, or the injected connection-level fault itself.
// Anything else — in particular plausible bytes with a decode error —
// is a contract violation.
func typedError(err error) bool {
	var apiErr *client.APIError
	var intErr *client.IntegrityError
	switch {
	case errors.As(err, &apiErr), errors.As(err, &intErr):
		return true
	case errors.Is(err, client.ErrTruncatedStream):
		return true
	case errors.Is(err, faultnet.ErrInjectedReset):
		return true
	}
	// A severed TCP connection surfaces as a transport-level *url.Error;
	// net-layer failures are typed by the stdlib.
	var netErr net.Error
	return errors.As(err, &netErr) || errors.Is(err, context.DeadlineExceeded)
}
