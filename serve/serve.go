// Package serve turns the deterministic simulator into a long-lived HTTP
// JSON service. POST /v1/run accepts an hfstream.Spec (benchmark + design +
// run mode), executes it on a bounded worker pool shared with the
// experiment harness (internal/exp.Pool), and responds with the run's
// metrics snapshot — the exact bytes hfstream.WithMetrics writes, so a
// served response is byte-identical to calling the library API directly.
//
// Three properties make the service safe to put in front of heavy
// traffic:
//
//   - Content-addressed caching: requests are canonicalized and hashed
//     (hfstream.Spec.Key), and successful response bodies are cached in a
//     byte-budgeted LRU. The simulator is deterministic (RESILIENCE.md),
//     so a cache hit is guaranteed byte-identical to a fresh run.
//   - Request coalescing: concurrent identical requests collapse onto one
//     in-flight simulation (singleflight); every caller gets the same
//     bytes, and exactly one underlying run happens per unique request.
//   - Backpressure: when the queue is full the service sheds load with a
//     typed 429 JSON error instead of queuing unboundedly, and
//     BeginDrain/Drain reject new work with 503 while letting in-flight
//     jobs finish — the SIGTERM path of cmd/hfserve.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"hfstream"
	"hfstream/internal/exp"
)

// Defaults for the zero Config.
const (
	DefaultQueueDepth = 64
	DefaultCacheBytes = 64 << 20
	DefaultJobTimeout = 2 * time.Minute

	// maxRequestBytes bounds a /v1/run request body; specs are tiny and an
	// unbounded read is a trivial memory DoS.
	maxRequestBytes = 1 << 20
)

// Config parameterizes a Server. The zero value picks the defaults
// above; CacheBytes < 0 disables caching (coalescing still applies).
type Config struct {
	// Workers is the simulation pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a submission
	// past the bound is shed with 429 rather than queued.
	QueueDepth int
	// CacheBytes is the result cache budget (0 = default, < 0 = off).
	CacheBytes int64
	// JobTimeout caps each simulation's wall-clock time through the
	// ctx-first run API; an expired job fails with a typed 504.
	JobTimeout time.Duration
	// Peer, when non-nil, plugs this server into a cluster cache tier
	// (serve/cluster): on a local cache miss the server asks the key's
	// owner shard for the bytes before simulating, and publishes fresh
	// results back to the owners. See peer.go for the contract.
	Peer Peer
}

// Server is one service instance. Create it with New, mount Handler on
// an http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	pool    *exp.Pool
	cache   *resultCache // nil when disabled
	peer    Peer         // nil when not clustered
	flights flightGroup

	draining atomic.Bool
	start    time.Time
	baseCtx  context.Context // job lifetime: server-scoped, not request-scoped
	cancel   context.CancelFunc

	requests    atomic.Uint64
	streams     atomic.Uint64
	sweeps      atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	coalesced   atomic.Uint64
	peerHits    atomic.Uint64
	peerMisses  atomic.Uint64
	runs        atomic.Uint64
	failures    atomic.Uint64
	shed        atomic.Uint64
	rejected    atomic.Uint64
	peerPutBad  atomic.Uint64
	simCycles   atomic.Uint64
	simInstrs   atomic.Uint64
	simStalls   atomic.Uint64

	// run executes one spec; overridable by tests to model slow or
	// failing jobs without real simulations (same seam as exp.Runner.run).
	// hooks, when non-nil, is the streaming request's progress delivery.
	run func(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		pool:    exp.NewPool(cfg.Workers, cfg.QueueDepth),
		peer:    cfg.Peer,
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
	}
	if cfg.CacheBytes > 0 {
		s.cache = newResultCache(cfg.CacheBytes)
	}
	s.run = s.execSpec
	return s
}

// Handler returns the service's HTTP surface. The wire contract lives
// under /v1/ and nowhere else (documented in full in serve/API.md):
//
//	POST /v1/run            run a spec (or serve it from cache), body = metrics JSON
//	POST /v1/run?stream=ndjson  the same run as live NDJSON events (see stream.go)
//	POST /v1/sweep          run a (benches x designs x options) grid, cells
//	                        streamed as NDJSON events as they complete (see sweep.go)
//	GET  /v1/metrics        service counters (cache, queue, peering, simulated work)
//	GET  /v1/healthz        liveness; 503 once draining so balancers stop routing
//	GET  /v1/peer/{key}     cluster-internal: the cached bytes for a Spec.Key,
//	                        404 (not_cached) on miss — never simulates
//	PUT  /v1/peer/{key}     cluster-internal: publish a replica's fresh result
//	                        into this shard's cache
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/peer/", s.handlePeer)
	return mux
}

// BeginDrain flips the server into draining mode: new run work is
// rejected with a typed 503 and /v1/healthz reports draining, while queued
// and in-flight jobs keep running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain is the graceful-shutdown path: it begins draining, closes the
// pool's intake, and waits for every queued and in-flight job to finish.
// If ctx expires first, in-flight simulations are canceled through the
// ctx-first run API and the ctx error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.pool.Close()
	err := s.pool.Wait(ctx)
	if err != nil {
		s.cancel()
	}
	return err
}

// Error codes carried in the typed JSON error envelope.
const (
	codeBadRequest = "bad_request"
	codeQueueFull  = "queue_full"
	codeDraining   = "draining"
	codeTimeout    = "timeout"
	codeCanceled   = "canceled"
	codeDeadlock   = "deadlock"
	codeRunFailed  = "run_failed"
	codeInternal   = "internal"
	// codeIntegrity rejects a peer PUT whose body fails digest
	// verification: the bytes were damaged in flight (truncated or
	// corrupted) and must never enter the cache.
	codeIntegrity = "integrity"
)

// Retry-After hints on backpressure responses (seconds). Queue-full is
// transient — a breath usually clears it; draining is terminal for
// this replica, so the hint is longer and clients should prefer
// another instance.
const (
	retryAfterQueueFull = 1
	retryAfterDraining  = 2
)

// statusClientClosed reports a run stopped because its requester went
// away (the nginx 499 convention); streaming requests join the
// simulation to the request context, so a client disconnect cancels the
// run mid-flight rather than burning a worker on an unwatched result.
const statusClientClosed = 499

// ErrorEnvelope is the JSON envelope of every non-200 response. It is
// exported (with ErrorDetail) so typed clients — serve/client, the
// cluster peer-fill path, hfload — decode errors structurally instead
// of scraping bodies.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the typed error payload inside an ErrorEnvelope (and
// inside streaming error events).
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Diagnosis carries the structured machine snapshot for deadlock
	// detections (hfstream.DiagnosisJSON form).
	Diagnosis json.RawMessage `json:"diagnosis,omitempty"`
}

// outcome is one request's terminal state: either the cacheable metrics
// body or a rendered error envelope.
type outcome struct {
	status int
	body   []byte
	// source is the cache provenance a response reports: "hit", "miss"
	// (fresh run), "peer" or "coalesced" — "" on an error nobody joined.
	source string
	ok     bool
	// retryAfter, when positive, emits a Retry-After header (seconds)
	// telling clients when the condition is worth re-probing.
	retryAfter int
}

// withRetryAfter attaches a Retry-After hint to an error outcome.
func (o *outcome) withRetryAfter(secs int) *outcome {
	o.retryAfter = secs
	return o
}

func errorOutcome(status int, code, msg string, diag json.RawMessage) *outcome {
	body, err := json.Marshal(ErrorEnvelope{Error: ErrorDetail{Code: code, Message: msg, Diagnosis: diag}})
	if err != nil {
		status, body = http.StatusInternalServerError,
			[]byte(`{"error":{"code":"internal","message":"error marshal failed"}}`)
	}
	return &outcome{status: status, body: append(body, '\n')}
}

// decodeBody reads a request body that must be exactly one JSON value of
// v's shape: no unknown field, at most maxRequestBytes, and nothing but
// whitespace after the value. Decode alone stops at the end of the first
// value, which would answer `{...} garbage` and `{...}{...}` as if only
// the first object had been sent.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeOutcome(w, "", errorOutcome(http.StatusMethodNotAllowed, codeBadRequest, "POST required", nil))
		return
	}
	s.requests.Add(1)
	var q url.Values // nil reads as empty: a bare /v1/run parses nothing
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	stream := q.Get("stream")
	if stream != "" && stream != "ndjson" {
		writeOutcome(w, "", errorOutcome(http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unsupported stream mode %q (only ndjson)", stream), nil))
		return
	}
	var spec hfstream.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeOutcome(w, "", errorOutcome(http.StatusBadRequest, codeBadRequest, "request body: "+err.Error(), nil))
		return
	}
	key, err := spec.Key()
	if err != nil {
		writeOutcome(w, "", errorOutcome(http.StatusBadRequest, codeBadRequest, err.Error(), nil))
		return
	}
	if stream == "ndjson" {
		s.streamRun(w, r, q, key, spec)
		return
	}
	out := s.resolve(s.baseCtx, key, spec, nil)
	writeOutcome(w, key, &out)
}

// resolve answers one content key, and is the only way a run request, a
// stream or a sweep cell gets an answer: the resident bytes when the
// cache holds them, otherwise the outcome of the key's flight, led by
// runOne or joined. The provenance label and the cache_hits and
// coalesced counters are decided here, so the three endpoints cannot
// disagree on them. The outcome is returned by value: a joiner relabels
// its own copy of the leader's, and a hit never reaches the heap.
func (s *Server) resolve(ctx context.Context, key string, spec hfstream.Spec, hooks *streamHooks) outcome {
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		return outcome{status: http.StatusOK, body: body, source: "hit", ok: true}
	}
	led, joined := s.flights.do(key, func() *outcome { return s.runOne(ctx, key, spec, hooks) })
	out := *led
	if joined {
		s.coalesced.Add(1)
		out.source = "coalesced"
	}
	return out
}

// runOne is the flight leader's path: admission control, pool submit,
// and cache publication. It never runs concurrently for the same key.
// ctx bounds the job (baseCtx for blocking requests, the request's own
// context for streams and sweeps); hooks carries streaming progress
// delivery.
func (s *Server) runOne(ctx context.Context, key string, spec hfstream.Spec, hooks *streamHooks) *outcome {
	if s.draining.Load() {
		s.rejected.Add(1)
		return errorOutcome(http.StatusServiceUnavailable, codeDraining,
			"server is draining; retry against another instance", nil).withRetryAfter(retryAfterDraining)
	}
	// A requester that is already gone (a sweep cell reached after its
	// client left) gets no peer fill and no worker.
	if ctx.Err() != nil {
		return errorOutcome(statusClientClosed, codeCanceled, "canceled before the run started", nil)
	}
	// A flight for this key may have completed between resolve's cache
	// check and this one; the leader publishes to the cache before the
	// flight deregisters, so this re-check closes the gap.
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		return &outcome{status: http.StatusOK, body: body, source: "hit", ok: true}
	}
	s.cacheMisses.Add(1)

	// A request-scoped job (a stream's, a sweep cell's) ends with its
	// requester and also when the server tears its jobs down (baseCtx, the
	// Drain-deadline path), whichever comes first. The two are joined here
	// and not in the handlers so that a request answered from the cache
	// never builds a context.
	if ctx != s.baseCtx {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
	}

	// Cluster cache tier: on a local miss, ask the key's owner shard for
	// the bytes before burning a worker on a simulation. Determinism makes
	// a peer's bytes indistinguishable from a local run, so a peer hit is
	// cached and served exactly like one. Fill is bounded (the peering
	// layer owns the timeout) and failure only means "simulate locally" —
	// a dead or slow peer can never fail the request.
	if s.peer != nil {
		if body, ok := s.peer.Fill(ctx, key); ok {
			s.peerHits.Add(1)
			s.cache.Put(key, body)
			return &outcome{status: http.StatusOK, body: body, source: "peer", ok: true}
		}
		s.peerMisses.Add(1)
	}

	ch := make(chan *outcome, 1)
	err := s.pool.TrySubmit(func() { ch <- runProtected(func() *outcome { return s.run(ctx, spec, hooks) }) })
	switch {
	case errors.Is(err, exp.ErrPoolFull):
		s.shed.Add(1)
		return errorOutcome(http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("queue full (%d jobs pending, depth %d); load shed rather than queued unboundedly",
				s.pool.Pending(), s.cfg.QueueDepth), nil).withRetryAfter(retryAfterQueueFull)
	case err != nil: // pool closed: drain won the race
		s.rejected.Add(1)
		return errorOutcome(http.StatusServiceUnavailable, codeDraining,
			"server is draining", nil).withRetryAfter(retryAfterDraining)
	}
	out := <-ch
	if out.ok {
		s.cache.Put(key, out.body)
		// Publish the fresh result to the key's owner shards (async,
		// best-effort) so any replica's future miss peer-hits instead of
		// re-simulating. The spec rides along so the receiving shard can
		// verify the key↔body binding before caching.
		if s.peer != nil {
			s.peer.Store(key, spec, out.body)
		}
	}
	return out
}

// execSpec runs one simulation and classifies its outcome. The response
// body is exactly what hfstream.WithMetrics writes, which is what makes
// direct-API and served results byte-comparable. A non-nil hooks wires
// the streaming progress callback into the run (progress delivery never
// changes the metrics bytes — the fast-forward invariant covers
// progress boundaries, and the differential battery asserts it).
func (s *Server) execSpec(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome {
	s.runs.Add(1)
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	opts := []hfstream.RunOpt{}
	var buf bytes.Buffer
	opts = append(opts, hfstream.WithMetrics(&buf))
	if hooks != nil {
		opts = append(opts, hfstream.WithProgress(hooks.start()))
		if hooks.every > 0 {
			opts = append(opts, hfstream.WithProgressInterval(hooks.every))
		}
	}
	res, err := spec.RunCtx(ctx, opts...)
	if err != nil {
		s.failures.Add(1)
		var dl *hfstream.DeadlockError
		var ce *hfstream.CanceledError
		var ve *hfstream.ValidationError
		switch {
		case errors.As(err, &dl):
			var diag json.RawMessage
			if dl.Diag != nil {
				diag, _ = hfstream.DiagnosisJSON(dl.Diag)
			}
			return errorOutcome(http.StatusUnprocessableEntity, codeDeadlock, err.Error(), diag)
		case errors.As(err, &ce):
			// Distinguish the two ways a run's context dies: an expired
			// per-job budget is a timeout; an upstream cancel (client
			// disconnect on a streaming request, or a drain deadline) is a
			// cancellation — the graceful-degradation path, not a fault.
			if ctx.Err() == context.Canceled {
				return errorOutcome(statusClientClosed, codeCanceled,
					"run canceled by its requester: "+err.Error(), nil)
			}
			return errorOutcome(http.StatusGatewayTimeout, codeTimeout,
				fmt.Sprintf("job exceeded its budget (%v): %v", s.cfg.JobTimeout, err), nil)
		case errors.As(err, &ve):
			return errorOutcome(http.StatusBadRequest, codeBadRequest, err.Error(), nil)
		default:
			return errorOutcome(http.StatusUnprocessableEntity, codeRunFailed, err.Error(), nil)
		}
	}
	s.simCycles.Add(res.Cycles)
	var instrs, stalls uint64
	for i := range res.Instructions {
		instrs += res.Instructions[i]
	}
	for i := range res.CoreCycles {
		stalls += res.CoreCycles[i] - res.IssueCycles[i]
	}
	s.simInstrs.Add(instrs)
	s.simStalls.Add(stalls)
	return &outcome{status: http.StatusOK, body: buf.Bytes(), source: "miss", ok: true}
}

// Header values that never change. A header map holds its value slices by
// reference, so these are shared by every response instead of allocated
// per reply; nothing may write to them. provenance has one entry per
// outcome.source label.
var (
	jsonContentType = []string{"application/json"}
	provenance      = map[string][]string{
		"hit": {"hit"}, "miss": {"miss"}, "peer": {"peer"}, "coalesced": {"coalesced"}, "local": {"local"},
	}
)

// writeOutcome writes one terminal response: every unary reply goes out
// through here. Cache provenance rides in headers, never the body, so
// hit/miss/coalesced bodies stay byte-identical. The declared
// Content-Length lets a client read the body into one buffer of its size.
// Headers go in under their canonical keys, where Header.Set would
// canonicalize each key again and allocate each value a slice; the two
// values that vary share one array, capped so neither can grow into the
// other, the layout Header.Clone uses.
func writeOutcome(w http.ResponseWriter, key string, out *outcome) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	vals := []string{strconv.Itoa(len(out.body)), key}
	h["Content-Length"] = vals[0:1:1]
	if key != "" {
		h["X-Hfserve-Key"] = vals[1:2:2]
	}
	if out.source != "" {
		h["X-Hfserve-Cache"] = provenance[out.source]
	}
	if out.retryAfter > 0 {
		h["Retry-After"] = []string{strconv.Itoa(out.retryAfter)}
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeOutcome(w, "", &outcome{status: code,
		body: fmt.Appendf(nil, "{\"status\":%q,\"in_flight\":%d}\n", status, s.inFlight())})
}

func (s *Server) inFlight() int {
	n := s.pool.Pending() - s.pool.QueueLen()
	if n < 0 {
		n = 0
	}
	return n
}
