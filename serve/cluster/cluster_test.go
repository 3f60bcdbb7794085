package cluster

// Integration tests for the peering layer against real serve.Server
// replicas: fill/store/replication provenance, and the failure contract
// — a peer that dies mid-fill, or stays dead under load, only ever
// degrades requests to local compute. These run under the race detector
// in the serve-cluster CI job.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
	"hfstream/serve/faultnet"
)

// swapHandler lets a replica's HTTP server exist (with a concrete URL)
// before the serve.Server it fronts: peering needs every URL up front.
type swapHandler struct{ v atomic.Value } // holds handlerBox

// handlerBox gives atomic.Value a single concrete type even as the
// boxed handler's type changes (ServeMux, test gates, ...).
type handlerBox struct{ h http.Handler }

func (s *swapHandler) set(h http.Handler) { s.v.Store(handlerBox{h}) }

func (s *swapHandler) get() http.Handler {
	if b, ok := s.v.Load().(handlerBox); ok {
		return b.h
	}
	return nil
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.get(); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "replica not ready", http.StatusServiceUnavailable)
}

// testCluster is built by hand rather than by NewLoopback because these
// tests reach under a running replica: they swap its handler (fillGate,
// a lying peer) and close its listener mid-fill. The shared builder has
// no parameter for either, and must not grow one only this file uses.
type testCluster struct {
	closed   bool
	ids      []string
	servers  []*serve.Server
	peerings []*Peering
	ts       []*httptest.Server
	swaps    []*swapHandler
	clients  []*client.Client
	hc       *http.Client
}

// newTestCluster builds an n-replica peered cluster. tweak, if non-nil,
// adjusts each replica's peering config before construction.
func newTestCluster(t *testing.T, n int, tweak func(*Config)) *testCluster {
	t.Helper()
	c := &testCluster{hc: &http.Client{Transport: &http.Transport{}}}
	urls := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		c.ids = append(c.ids, id)
		sw := &swapHandler{}
		c.swaps = append(c.swaps, sw)
		ts := httptest.NewServer(sw)
		c.ts = append(c.ts, ts)
		urls[id] = ts.URL
	}
	for i := 0; i < n; i++ {
		cfg := Config{Self: c.ids[i], Peers: urls, HTTPClient: c.hc}
		if tweak != nil {
			tweak(&cfg)
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(serve.Config{Workers: 1, Peer: p})
		c.swaps[i].set(srv.Handler())
		c.peerings = append(c.peerings, p)
		c.servers = append(c.servers, srv)
		c.clients = append(c.clients, client.New(urls[c.ids[i]], client.WithHTTPClient(c.hc)))
	}
	t.Cleanup(func() { c.shutdown(t) })
	return c
}

func (c *testCluster) shutdown(t *testing.T) {
	t.Helper()
	if c.closed {
		return
	}
	c.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := range c.ts {
		c.ts[i].Close()
		c.peerings[i].Close()
		c.servers[i].BeginDrain()
		if err := c.servers[i].Drain(ctx); err != nil {
			t.Errorf("replica %d drain: %v", i, err)
		}
	}
	c.hc.CloseIdleConnections()
}

func (c *testCluster) index(t *testing.T, id string) int {
	t.Helper()
	for i, have := range c.ids {
		if have == id {
			return i
		}
	}
	t.Fatalf("unknown replica %q", id)
	return -1
}

func (c *testCluster) flush(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, p := range c.peerings {
		if err := p.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

var clusterSpec = hfstream.Spec{Bench: "bzip2", Design: "EXISTING"}

func specKey(t *testing.T, spec hfstream.Spec) string {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// directBytes runs spec through the library API for a reference body.
func directBytes(t *testing.T, spec hfstream.Spec) []byte {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := norm.RunCtx(context.Background(), hfstream.WithMetrics(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustRun(t *testing.T, cl *client.Client, spec hfstream.Spec) *client.RunResult {
	t.Helper()
	res, err := cl.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("client.Run: %v", err)
	}
	return res
}

// TestClusterFillStoreReplication walks one key through every
// provenance: cold miss on the primary owner, store replication to the
// secondary, peer fill on the non-owner, then a local hit.
func TestClusterFillStoreReplication(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	want := directBytes(t, clusterSpec)
	key := specKey(t, clusterSpec)
	owners := c.peerings[0].Owners(key)
	primary := c.index(t, owners[0])
	secondary := c.index(t, owners[1])
	nonOwner := 3 - primary - secondary

	cold := mustRun(t, c.clients[primary], clusterSpec)
	if cold.Cache != "miss" || !bytes.Equal(cold.Body, want) {
		t.Fatalf("cold: cache=%q, body match=%v", cold.Cache, bytes.Equal(cold.Body, want))
	}
	c.flush(t)

	repl := mustRun(t, c.clients[secondary], clusterSpec)
	if repl.Cache != "hit" || !bytes.Equal(repl.Body, want) {
		t.Fatalf("secondary owner: cache=%q, want replicated hit", repl.Cache)
	}
	peer := mustRun(t, c.clients[nonOwner], clusterSpec)
	if peer.Cache != "peer" || !bytes.Equal(peer.Body, want) {
		t.Fatalf("non-owner: cache=%q, want peer fill", peer.Cache)
	}
	again := mustRun(t, c.clients[nonOwner], clusterSpec)
	if again.Cache != "hit" {
		t.Fatalf("non-owner replay: cache=%q, want local hit", again.Cache)
	}

	stats := c.peerings[nonOwner].Stats()
	if stats.Hits != 1 || stats.Replicas != 3 {
		t.Errorf("non-owner peer stats = %+v, want one fill hit on a 3-ring", stats)
	}
	var runs uint64
	for _, s := range c.servers {
		runs += s.Metrics().Runs
	}
	if runs != 1 {
		t.Errorf("cluster simulated %d times, want 1", runs)
	}
}

// fillGate wraps a replica's handler so the test can hold a peer-tier
// GET open (simulating a stalled owner) and then sever it.
type fillGate struct {
	inner   http.Handler
	hold    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *fillGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/") {
		g.once.Do(func() { close(g.entered) })
		<-g.hold
	}
	g.inner.ServeHTTP(w, r)
}

// TestClusterOwnerDeathMidFill is the required failure race: the key's
// owner stalls and then drops the connection while a fill is in flight.
// The request must still succeed — served by local compute with the
// reference bytes — and the cluster must not leak the stalled fill's
// goroutines.
func TestClusterOwnerDeathMidFill(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		c := newTestCluster(t, 3, func(cfg *Config) {
			cfg.FillTimeout = 5 * time.Second // the kill, not the timeout, must end the fill
		})
		want := directBytes(t, clusterSpec)
		key := specKey(t, clusterSpec)
		owners := c.peerings[0].Owners(key)
		primary := c.index(t, owners[0])
		secondary := c.index(t, owners[1])
		// The requester is the non-owner, so its miss goes to the ring.
		requester := 3 - primary - secondary

		gate := &fillGate{
			inner:   c.swaps[primary].get(),
			hold:    make(chan struct{}),
			entered: make(chan struct{}),
		}
		c.swaps[primary].set(gate)
		var release sync.Once
		defer release.Do(func() { close(gate.hold) }) // in case of early Fatal

		resCh := make(chan *client.RunResult, 1)
		errCh := make(chan error, 1)
		go func() {
			res, err := c.clients[requester].Run(context.Background(), clusterSpec)
			if err != nil {
				errCh <- err
				return
			}
			resCh <- res
		}()

		select {
		case <-gate.entered:
		case err := <-errCh:
			t.Fatalf("request failed before the fill started: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("fill never reached the owner")
		}
		// Kill the owner mid-fill: sever every open connection.
		c.ts[primary].CloseClientConnections()

		select {
		case res := <-resCh:
			if res.Cache != "miss" {
				t.Errorf("degraded request provenance = %q, want local miss", res.Cache)
			}
			if !bytes.Equal(res.Body, want) {
				t.Error("degraded request body differs from direct API bytes")
			}
		case err := <-errCh:
			t.Fatalf("request failed after owner death: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("request never completed after owner death")
		}

		stats := c.peerings[requester].Stats()
		if stats.Errors == 0 {
			t.Errorf("peer stats = %+v, want the severed fill counted as an error", stats)
		}

		// Tear the cluster down before the leak check below (t.Cleanup
		// would only run after the test body, including the check).
		release.Do(func() { close(gate.hold) })
		c.shutdown(t)
	}()

	// Leak check: everything the cluster started must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after teardown", before, runtime.NumGoroutine())
}

// TestClusterDeadOwnerUnderLoad: with one replica gone entirely, a
// burst of concurrent requests through the survivors sees zero
// failures; the dead peer trips the failure threshold and is skipped.
func TestClusterDeadOwnerUnderLoad(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) {
		cfg.FillTimeout = 200 * time.Millisecond
		cfg.FailThreshold = 2
		cfg.DownDuration = time.Hour // stays down for the whole test
	})
	dead := 0
	c.ts[dead].Close() // replica n0 is gone before any traffic

	specs := []hfstream.Spec{
		{Bench: "bzip2", Design: "EXISTING"},
		{Bench: "bzip2", Design: "MEMOPTI"},
		{Bench: "bzip2", Design: "SYNCOPTI"},
		{Bench: "bzip2", Single: true},
		{Bench: "adpcmdec", Design: "EXISTING"},
		{Bench: "adpcmdec", Single: true},
	}
	survivors := []int{1, 2}
	var wg sync.WaitGroup
	errs := make([]error, len(specs)*4)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.clients[survivors[i%len(survivors)]]
			_, err := cl.Run(context.Background(), specs[i%len(specs)])
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d failed with a dead replica in the ring: %v", i, err)
		}
	}
	downSeen := false
	for _, idx := range survivors {
		if s := c.peerings[idx].Stats(); s.PeersDown > 0 || s.SkippedDown > 0 {
			downSeen = true
		}
	}
	if !downSeen {
		t.Error("no survivor ever marked the dead replica down")
	}
}

// TestClusterCorruptedFillNeverCached: a non-owner whose peer channel
// corrupts bytes in flight (faultnet corrupt-body on its fill
// transport) must detect every damaged transfer via the digest header,
// fall back to local simulation, and end up with the *correct* bytes
// in every cache — poisoning is impossible, not just unlikely.
func TestClusterCorruptedFillNeverCached(t *testing.T) {
	// Ownership is a pure function of the replica ids, so the non-owner
	// is computable before the real cluster (and its transports) exist.
	probe, err := New(Config{Self: "n0", Peers: map[string]string{
		"n0": "http://probe.invalid", "n1": "http://probe.invalid", "n2": "http://probe.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	key := specKey(t, clusterSpec)
	owners := probe.Owners(key)
	probe.Close()
	ownerSet := map[string]bool{owners[0]: true, owners[1]: true}
	nonOwnerID := ""
	for _, id := range []string{"n0", "n1", "n2"} {
		if !ownerSet[id] {
			nonOwnerID = id
		}
	}

	// The non-owner's peering transport corrupts its first two requests
	// — exactly the two owner GETs its fill will make.
	corrupt := faultnet.NewTransport(faultnet.Plan{Events: []faultnet.Event{
		{Kind: faultnet.CorruptBody, Nth: 1},
		{Kind: faultnet.CorruptBody, Nth: 2},
	}}, &http.Transport{})
	c := newTestCluster(t, 3, func(cfg *Config) {
		if cfg.Self == nonOwnerID {
			cfg.HTTPClient = corrupt.Client()
		}
	})
	want := directBytes(t, clusterSpec)
	primary := c.index(t, owners[0])
	nonOwner := c.index(t, nonOwnerID)

	// Prime the owners over clean channels.
	if res := mustRun(t, c.clients[primary], clusterSpec); !bytes.Equal(res.Body, want) {
		t.Fatal("priming run body differs from reference")
	}
	c.flush(t)

	// The non-owner's fill sees only damaged bytes: both owner GETs are
	// dropped on digest mismatch and the request degrades to local
	// compute — byte-correct, provenance "miss", never "peer".
	res := mustRun(t, c.clients[nonOwner], clusterSpec)
	if res.Cache != "miss" || !bytes.Equal(res.Body, want) {
		t.Fatalf("corrupted-fill request: cache=%q, body match=%v", res.Cache, bytes.Equal(res.Body, want))
	}
	stats := c.peerings[nonOwner].Stats()
	if stats.IntegrityDrops != 2 || stats.Hits != 0 {
		t.Fatalf("non-owner stats = %+v, want both corrupt transfers dropped", stats)
	}
	if len(corrupt.Shots()) != 2 {
		t.Fatalf("fault shots = %v, want both corruptions fired", corrupt.ShotStrings())
	}

	// Post-run audit: every replica that holds the key holds the
	// reference bytes — zero poisoned entries anywhere in the cluster.
	c.flush(t)
	for i := range c.clients {
		got, err := c.clients[i].PeerGet(context.Background(), key)
		if err != nil {
			continue // cold shard: nothing cached is also not poisoned
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d caches poisoned bytes for %s", i, key)
		}
	}
	// The dead channel cost exactly one extra local simulation.
	var runs uint64
	for _, s := range c.servers {
		runs += s.Metrics().Runs
	}
	if runs != 2 {
		t.Errorf("cluster simulated %d times, want 2 (prime + degraded fallback)", runs)
	}
}

// TestClusterStoreAfterClose: publications after Close are dropped and
// counted, never a panic or a block.
func TestClusterStoreAfterClose(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	p := c.peerings[0]
	p.Close()
	p.Store("0000000000000000000000000000000000000000000000000000000000000000", hfstream.Spec{Bench: "bzip2", Single: true}, []byte("x"))
	if s := p.Stats(); s.StoreDropped == 0 {
		t.Errorf("stats = %+v, want the post-Close store counted as dropped", s)
	}
}

// TestClusterSelfOnly: a ring of one has no peers to ask; every fill is
// a local matter and nothing errors.
func TestClusterSelfOnly(t *testing.T) {
	p, err := New(Config{Self: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.Fill(context.Background(), "deadbeef"); ok {
		t.Error("fill succeeded with no peers")
	}
	p.Store("deadbeef", hfstream.Spec{Bench: "bzip2", Single: true}, []byte("x"))
	if s := p.Stats(); s.Replicas != 1 || s.Errors != 0 {
		t.Errorf("solo stats = %+v", s)
	}
}
