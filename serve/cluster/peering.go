package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
)

// Defaults for the zero Config fields, and the tier's fixed bounds.
const (
	// DefaultReplication is how many owner shards a key is stored to and
	// fetched from: 2 means a key survives one replica death without
	// losing its cached bytes, and a fill has a failover candidate while
	// the primary owner is down.
	DefaultReplication = 2
	// DefaultFillTimeout bounds one peer-fill attempt. It is deliberately
	// tight: a fill races a local simulation that would take milliseconds
	// to minutes, but a healthy peer answers a cache lookup in
	// microseconds — so a slow peer should lose quickly and the request
	// degrade to local compute.
	DefaultFillTimeout = 250 * time.Millisecond
	// DefaultStoreTimeout bounds one async store publication (fixed: no
	// deployment has needed another value).
	DefaultStoreTimeout = time.Second
	// DefaultFailThreshold is how many consecutive transport failures
	// open a peer's circuit breaker.
	DefaultFailThreshold = 3
	// DefaultDownDuration is the breaker cooldown: how long an open
	// breaker skips its peer before admitting one half-open probe.
	DefaultDownDuration = 2 * time.Second
	// storeQueueDepth bounds the async store queue; publications past it
	// are dropped (counted), never blocking the serving path.
	storeQueueDepth = 256
)

// Config describes this replica's view of the cluster.
type Config struct {
	// Self is this replica's ID. It must appear in the ring (it is added
	// implicitly if absent from Peers).
	Self string
	// Peers maps replica ID to base URL (http://host:port) for every
	// other replica; an entry for Self is allowed and ignored.
	Peers map[string]string
	// Replication is the owner count per key (see DefaultReplication);
	// clamped to the ring size.
	Replication int
	// FillTimeout bounds one peer-fill attempt (0 = DefaultFillTimeout).
	FillTimeout time.Duration
	// FailThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker (0 = DefaultFailThreshold).
	FailThreshold int
	// DownDuration is the breaker cooldown before a half-open probe
	// (0 = DefaultDownDuration).
	DownDuration time.Duration
	// HTTPClient overrides the transport used for peer calls.
	HTTPClient *http.Client
	// Clock overrides time for breaker transitions (nil = real clock);
	// tests inject a manual clock to walk the breaker through
	// open/half-open/closed without sleeping.
	Clock Clock
}

// peerState is one remote replica: its typed client plus its circuit
// breaker. The breaker is advisory on the fill path — it only decides
// whether a fill/store bothers trying, so a stale state can never fail
// a request, only cost a local simulation.
type peerState struct {
	cl *client.Client
	br breaker
}

// Peering implements serve.Peer over the /v1/peer HTTP tier. Create it
// with New, hand it to serve.Config.Peer, and Close it after the server
// drains.
type Peering struct {
	cfg   Config
	ring  *Ring
	clock Clock
	peers map[string]*peerState // remote replicas only (Self excluded)

	storeMu     sync.RWMutex
	storeClosed bool
	storeQ      chan storeReq
	storeWG     sync.WaitGroup
	pending     atomic.Int64

	fills          atomic.Uint64
	hits           atomic.Uint64
	misses         atomic.Uint64
	errs           atomic.Uint64
	timeouts       atomic.Uint64
	skippedDown    atomic.Uint64
	integrityDrops atomic.Uint64
	stores         atomic.Uint64
	storeErrs      atomic.Uint64
	storeDrops     atomic.Uint64
}

type storeReq struct {
	key  string
	spec hfstream.Spec
	body []byte
}

// New builds the peering layer for one replica. The ring covers Self
// plus every key of Peers, so all replicas construct identical rings
// from the same membership list — routing agreement needs no
// coordination beyond consistent configuration.
func New(cfg Config) (*Peering, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.FillTimeout <= 0 {
		cfg.FillTimeout = DefaultFillTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.DownDuration <= 0 {
		cfg.DownDuration = DefaultDownDuration
	}
	ids := []string{cfg.Self}
	for id := range cfg.Peers {
		if id != cfg.Self {
			ids = append(ids, id)
		}
	}
	ring, err := NewRing(ids, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	p := &Peering{
		cfg:    cfg,
		ring:   ring,
		clock:  clock,
		peers:  make(map[string]*peerState, len(cfg.Peers)),
		storeQ: make(chan storeReq, storeQueueDepth),
	}
	for id, baseURL := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		if baseURL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", id)
		}
		var opts []client.Option
		if cfg.HTTPClient != nil {
			opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
		}
		p.peers[id] = &peerState{cl: client.New(baseURL, opts...)}
	}
	// Two store workers: enough to keep publication latency off the
	// serving path without fanning out one goroutine per result.
	for i := 0; i < 2; i++ {
		p.storeWG.Add(1)
		go p.storeWorker()
	}
	return p, nil
}

// Ring exposes the membership ring (for tests and tooling).
func (p *Peering) Ring() *Ring { return p.ring }

// Owners returns key's owner list at the configured replication factor.
func (p *Peering) Owners(key string) []string {
	return p.ring.Owners(key, p.cfg.Replication)
}

// Fill implements serve.Peer: ask key's owner shards (in ring order,
// failing over across the replication set) for the cached bytes. Every
// attempt is bounded by FillTimeout and gated by the peer's circuit
// breaker (asked at attempt time, so a half-open probe is only
// consumed by a real request); any error is just a miss — the caller
// simulates locally, so a dead owner costs at most one bounded timeout
// per request until its breaker opens. Bodies are digest-verified by
// the client; damaged bytes surface as *client.IntegrityError, counted
// and dropped here, never returned.
func (p *Peering) Fill(ctx context.Context, key string) ([]byte, bool) {
	owned, tried := false, false
	for _, id := range p.Owners(key) {
		ps, ok := p.peers[id]
		if !ok { // Self
			continue
		}
		owned = true
		if !ps.br.allow(p.clock.Now(), p.cfg.DownDuration) {
			continue
		}
		if !tried {
			tried = true
			p.fills.Add(1)
		}
		attemptCtx, cancel := context.WithTimeout(ctx, p.cfg.FillTimeout)
		body, err := ps.cl.PeerGet(attemptCtx, key)
		cancel()
		switch {
		case err == nil:
			ps.br.success()
			p.hits.Add(1)
			return body, true
		case errors.Is(err, client.ErrNotCached):
			// A healthy owner that simply doesn't hold the key yet: not a
			// failure, but no point retrying this shard.
			ps.br.success()
		default:
			var ie *client.IntegrityError
			if errors.As(err, &ie) {
				// The transfer was damaged in flight; the bytes never
				// leave the client. A corrupt channel is as unhealthy as
				// a dead one, so it feeds the breaker like any failure.
				p.integrityDrops.Add(1)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				p.timeouts.Add(1)
			}
			p.errs.Add(1)
			ps.br.failure(p.cfg.FailThreshold, p.clock.Now())
		}
	}
	switch {
	case tried:
		p.misses.Add(1)
	case owned:
		// Owners exist but every breaker refused: the fill never left
		// this process.
		p.skippedDown.Add(1)
	}
	return nil, false
}

// Store implements serve.Peer: publish a locally computed result to
// key's owner shards, asynchronously. The queue is bounded; under
// pressure publications are dropped (the owners stay cold and later
// fills miss — correctness is untouched because any replica can always
// recompute any key).
func (p *Peering) Store(key string, spec hfstream.Spec, body []byte) {
	p.storeMu.RLock()
	defer p.storeMu.RUnlock()
	if p.storeClosed {
		p.storeDrops.Add(1)
		return
	}
	select {
	case p.storeQ <- storeReq{key: key, spec: spec, body: body}:
		p.pending.Add(1)
	default:
		p.storeDrops.Add(1)
	}
}

func (p *Peering) storeWorker() {
	defer p.storeWG.Done()
	for req := range p.storeQ {
		for _, id := range p.Owners(req.key) {
			ps, ok := p.peers[id]
			if !ok || !ps.br.allow(p.clock.Now(), p.cfg.DownDuration) {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), DefaultStoreTimeout)
			err := ps.cl.PeerPut(ctx, req.key, req.spec, req.body)
			cancel()
			if err != nil {
				p.storeErrs.Add(1)
				ps.br.failure(p.cfg.FailThreshold, p.clock.Now())
				continue
			}
			ps.br.success()
			p.stores.Add(1)
		}
		p.pending.Add(-1)
	}
}

// Flush blocks until every queued store publication has been attempted
// (or ctx expires). Useful before tearing a replica down, and for tests
// that need the owners' caches settled.
func (p *Peering) Flush(ctx context.Context) error {
	for p.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Close stops the store workers. Fill keeps working (it is stateless);
// Store calls after Close are counted as drops.
func (p *Peering) Close() {
	p.storeMu.Lock()
	if !p.storeClosed {
		p.storeClosed = true
		close(p.storeQ)
	}
	p.storeMu.Unlock()
	p.storeWG.Wait()
}

// Stats implements serve.Peer.
func (p *Peering) Stats() serve.PeerStats {
	downCount := 0
	var opens uint64
	for _, ps := range p.peers {
		state, o := ps.br.snapshot()
		if state != brClosed {
			downCount++
		}
		opens += o
	}
	return serve.PeerStats{
		Replicas:       p.ring.Size(),
		Fills:          p.fills.Load(),
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		Errors:         p.errs.Load(),
		Timeouts:       p.timeouts.Load(),
		SkippedDown:    p.skippedDown.Load(),
		IntegrityDrops: p.integrityDrops.Load(),
		Stores:         p.stores.Load(),
		StoreErrors:    p.storeErrs.Load(),
		StoreDropped:   p.storeDrops.Load(),
		PeersDown:      downCount,
		BreakerOpens:   opens,
	}
}
