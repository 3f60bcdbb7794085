package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
	"hfstream/serve/cluster"
)

// Op classes of the service workloads, by the X-Hfserve-Cache provenance
// the reply carried (a streamed cold op is filed apart from a unary one).
const (
	classHit uint8 = iota
	classMiss
	classStreamMiss
	classPeer
	classCoalesced
	classOther
)

func classOf(provenance string, streamed bool) uint8 {
	switch provenance {
	case "hit":
		return classHit
	case "miss":
		if streamed {
			return classStreamMiss
		}
		return classMiss
	case "peer":
		return classPeer
	case "coalesced":
		return classCoalesced
	}
	return classOther
}

// inproc is an http.RoundTripper that calls a handler directly. A 70 us op
// over a loopback socket carries +/-13% of scheduler noise; the socket's
// cost is reported once, as serve.http_loopback_rtt_yt, and kept out of
// every other number. The handler runs on the caller's goroutine, so its
// span nests under the client's.
type inproc struct {
	hosts map[string]http.Handler // by URL host
	// tracerFor finds the tracer of the op a request belongs to: the
	// client's own for its requests, the key's owner lane for a peer call.
	tracerFor func(req *http.Request) *tracer
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inproc: no replica at %q", req.URL.Host)
	}
	var tr *tracer
	if t.tracerFor != nil {
		tr = t.tracerFor(req)
	}
	rec := httptest.NewRecorder()
	tr.begin("serve.handler")
	h.ServeHTTP(rec, req)
	tr.end()
	if req.Body != nil {
		req.Body.Close()
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// references runs every cell through the library, as a direct caller
// would, and keeps the bytes: every served body is compared with them.
// The pass doubles as the simulator's warm pass. It returns the bodies,
// each cell's Spec.RunCtx time in yt and simulated cycles, and folds the snapshots into model.
func references(ctx context.Context, cells []cell, yt *ytClock, model *modelSum) (bodies [][]byte, runYT []float64, cycles []uint64, err error) {
	for _, c := range cells {
		var buf bytes.Buffer
		t0 := time.Now()
		r, err := c.Spec.RunCtx(ctx, hfstream.WithMetrics(&buf))
		d := float64(time.Since(t0))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("reference %s: %w", c, err)
		}
		bodies = append(bodies, buf.Bytes())
		runYT = append(runYT, d/yt.observe(d))
		cycles = append(cycles, r.Cycles)
		if err := model.addBody(buf.Bytes()); err != nil {
			return nil, nil, nil, fmt.Errorf("reference %s: %w", c, err)
		}
	}
	return bodies, runYT, cycles, nil
}

// serviceBase is what the three service workloads share.
type serviceBase struct {
	rc     runConfig
	cells  []cell
	bodies [][]byte
	runYT  []float64
	keys   []string // Spec.Key per cell
	cycles []uint64 // simulated cycles per cell, which an op that misses pays for

	// /v1/metrics and peer-tier counters, summed over servers and epochs.
	counts serve.Metrics
	peers  serve.PeerStats
}

func (s *serviceBase) lanes() int { return 2 }

func (s *serviceBase) setupCells(ctx context.Context, rc runConfig, clock *ytClock, cells []cell, res *runResult) error {
	s.rc, s.cells = rc, cells
	model := newModelSum()
	var err error
	if s.bodies, s.runYT, s.cycles, err = references(ctx, cells, clock, model); err != nil {
		return err
	}
	for _, c := range cells {
		k, err := c.Spec.Key()
		if err != nil {
			return err
		}
		s.keys = append(s.keys, k)
	}
	if rc.Trace {
		model.into(res.Layers)
		res.ModelDigest = model.digestHex()
		var kb []float64
		for _, b := range s.bodies {
			kb = append(kb, float64(len(b))/1024)
		}
		res.Layers["serve.body_kb_median"] = median(kb)
		res.Layers["hfstream.runctx_yt"] = median(s.runYT)
	}
	res.note("%s serves single-threaded and N-core cells, which have no paper reference: unvalidated, no error figure", rc.Workload)
	return nil
}

// send performs one service op through cl and checks it: the reply must
// carry the bytes of the direct library call and the provenance the
// generator planned.
func (s *serviceBase) send(ctx context.Context, tr *tracer, cl *client.Client, op genOp) (uint8, uint64, error) {
	spec := s.cells[op.Cell].Spec
	var body []byte
	var provenance string
	tr.begin("client.run")
	if op.Kind == opStream {
		st, err := cl.RunStream(ctx, spec, client.StreamOpts{ProgressEvery: 10000})
		if err == nil {
			var events []serve.StreamEvent
			events, err = st.All()
			st.Close()
			for _, ev := range events {
				switch ev.Type {
				case "metrics":
					body, provenance = []byte(ev.Body), ev.Cache
				case "error":
					err = fmt.Errorf("stream error event: %s: %s", ev.Error.Code, ev.Error.Message)
				}
			}
		}
		if err != nil {
			tr.end()
			return classOther, 0, err
		}
	} else {
		r, err := cl.Run(ctx, spec)
		if err != nil {
			tr.end()
			return classOther, 0, err
		}
		body, provenance = r.Body, r.Cache
	}
	tr.end()
	class := classOf(provenance, op.Kind == opStream)
	if !bytes.Equal(body, s.bodies[op.Cell]) {
		return class, 0, fmt.Errorf("served body differs from the direct Spec.RunCtx bytes (%d vs %d bytes)", len(body), len(s.bodies[op.Cell]))
	}
	if provenance != op.Want {
		return class, 0, fmt.Errorf("provenance %q, planned %q", provenance, op.Want)
	}
	if provenance == "miss" {
		return class, s.cycles[op.Cell], nil
	}
	return class, 0, nil
}

// runOps sends a lane's op list in order.
func (s *serviceBase) runOps(ctx context.Context, l *lane, traced bool, ops []genOp, clientFor func(op genOp) *client.Client) {
	for _, op := range ops {
		op := op
		l.exec(traced, op.Cell, func() string { return fmt.Sprintf("%s -> r%d", s.cells[op.Cell], op.Replica) },
			func(tr *tracer) (uint8, uint64, error) { return s.send(ctx, tr, clientFor(op), op) })
	}
}

// addCounts folds one server's /v1/metrics snapshot, fetched through the
// client like any other caller would, into the running sums.
func (s *serviceBase) addCounts(ctx context.Context, cl *client.Client, since *serve.Metrics) error {
	m, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	if since == nil {
		since = &serve.Metrics{}
	}
	s.counts.Requests += m.Requests - since.Requests
	s.counts.Runs += m.Runs - since.Runs
	s.counts.CacheHits += m.CacheHits - since.CacheHits
	s.counts.CacheMisses += m.CacheMisses - since.CacheMisses
	s.counts.Coalesced += m.Coalesced - since.Coalesced
	s.counts.ShedQueueFull += m.ShedQueueFull - since.ShedQueueFull
	s.counts.Failures += m.Failures - since.Failures
	if p := m.Peer; p != nil {
		s.peers.Fills += p.Fills
		s.peers.Hits += p.Hits
		s.peers.Misses += p.Misses
		s.peers.Stores += p.Stores
		s.peers.StoreDropped += p.StoreDropped
		s.peers.BreakerOpens += p.BreakerOpens
		s.peers.IntegrityDrops += p.IntegrityDrops
	}
	return nil
}

// finishService checks that the op classes landed where the generator put
// them, within two points, and fills the serve layer's metrics.
func (s *serviceBase) finishService(lanes []*lane, res *runResult, want map[uint8]float64) (got map[uint8]int, n int) {
	got = make(map[uint8]int)
	for _, l := range lanes {
		for _, o := range l.ops {
			got[o.Class]++
			n++
		}
	}
	for class, share := range want {
		if g := float64(got[class]) / float64(n); g < share-0.02 || g > share+0.02 {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("op class %d is %.1f%% of ops, designed %.1f%%", class, 100*g, 100*share))
		}
	}
	if !s.rc.Trace {
		return got, n
	}
	h := res.Layers
	handler := make(map[uint8][]float64) // class -> handler span, yt
	var overhead, missOver []float64
	for _, l := range lanes {
		self := opSelf(l.tr.spans)
		total := opTotals(l.tr.spans)
		for _, o := range l.ops {
			if !o.Traced {
				continue
			}
			hYT := float64(total[o.OpID]["serve.handler"]) / o.YT
			handler[o.Class] = append(handler[o.Class], hYT)
			overhead = append(overhead, float64(self[o.OpID]["client.run"])/o.YT)
			if o.Class == classMiss {
				missOver = append(missOver, hYT-s.runYT[o.Cell])
			}
		}
	}
	h["serve.hit_yt"] = median(handler[classHit])
	h["serve.cold_yt"] = median(handler[classMiss])
	h["serve.stream_cold_yt"] = median(handler[classStreamMiss])
	h["serve.miss_overhead_yt"] = median(missOver)
	h["client.overhead_yt"] = median(overhead)
	c := s.counts
	h["serve.requests"] = float64(c.Requests)
	h["serve.runs"] = float64(c.Runs)
	h["serve.cache_hits"] = float64(c.CacheHits)
	h["serve.cache_misses"] = float64(c.CacheMisses)
	h["serve.coalesced"] = float64(c.Coalesced)
	h["serve.shed"] = float64(c.ShedQueueFull)
	h["serve.failures"] = float64(c.Failures)
	if c.Requests > 0 {
		h["serve.hit_share"] = float64(c.CacheHits) / float64(c.Requests)
	}
	return got, n
}

// opTotals sums full span durations per (op, name), children included:
// what the caller of a layer waited for it.
func opTotals(spans []span) map[int32]map[string]int64 {
	out := make(map[int32]map[string]int64)
	for _, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]int64)
			out[s.Op] = m
		}
		// A peer fill nests a second handler span under the first; the
		// outermost one is the op's.
		if s.Name == "serve.handler" && m[s.Name] != 0 {
			continue
		}
		m[s.Name] += s.End - s.Start
	}
	return out
}

// newServer builds a single-worker server, alone or as a cluster member.
func newServer(peer serve.Peer) *serve.Server {
	return serve.New(serve.Config{Workers: 1, Peer: peer})
}

// laneClient builds lane l's client for the replicas in hosts.
func laneClient(l *lane, base string, hosts map[string]http.Handler) *client.Client {
	tr := &inproc{hosts: hosts, tracerFor: func(*http.Request) *tracer { return l.activeTracer() }}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))
}

// activeTracer is the lane's tracer while a traced op is open on it.
func (l *lane) activeTracer() *tracer {
	if l.tr != nil && len(l.tr.stack) > 0 {
		return l.tr
	}
	return nil
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// ---- serve_hot ----

// hotRoundOps is each client's ops per round on the hot server.
const hotRoundOps = 4000

type hotWorkload struct {
	serviceBase
	srv     *serve.Server
	clients []*client.Client
	hosts   map[string]http.Handler
	warm    *serve.Metrics
}

func (w *hotWorkload) setup(ctx context.Context, rc runConfig, clock *ytClock, res *runResult) error {
	if err := w.setupCells(ctx, rc, clock, hotCells(), res); err != nil {
		return err
	}
	w.srv = newServer(nil)
	w.hosts = map[string]http.Handler{"hot": w.srv.Handler()}
	// Pre-warm: every cell once, so every timed op is a hit.
	warm := client.New("http://hot", client.WithHTTPClient(&http.Client{Transport: &inproc{hosts: w.hosts}}))
	for i, c := range w.cells {
		r, err := warm.Run(ctx, c.Spec)
		if err != nil {
			return fmt.Errorf("pre-warm %s: %w", c, err)
		}
		if !bytes.Equal(r.Body, w.bodies[i]) {
			return fmt.Errorf("pre-warm %s: served body differs from the direct Spec.RunCtx bytes", c)
		}
	}
	m, err := warm.Metrics(ctx)
	w.warm = m
	return err
}

func (w *hotWorkload) round(ctx context.Context, r int, traced bool, lanes []*lane) error {
	if w.clients == nil {
		for _, l := range lanes {
			w.clients = append(w.clients, laneClient(l, "http://hot", w.hosts))
		}
	}
	n := hotRoundOps
	if w.rc.Short {
		n = 200
	}
	eachLane(lanes, func(l *lane) {
		ops := hotOps(w.rc.Seed, w.rc.Part, r, l.id, len(w.cells), n)
		w.runOps(ctx, l, traced, ops, func(genOp) *client.Client { return w.clients[l.id] })
	})
	return nil
}

func (w *hotWorkload) finish(ctx context.Context, lanes []*lane, res *runResult) error {
	if err := w.addCounts(ctx, w.clients[0], w.warm); err != nil {
		return err
	}
	w.finishService(lanes, res, map[uint8]float64{classHit: 1})
	return drain(w.srv)
}

// ---- serve_mix ----

type mixWorkload struct{ serviceBase }

func (w *mixWorkload) setup(ctx context.Context, rc runConfig, clock *ytClock, res *runResult) error {
	return w.setupCells(ctx, rc, clock, mixCells(), res)
}

// round is one epoch: a fresh server, so every key starts cold.
func (w *mixWorkload) round(ctx context.Context, r int, traced bool, lanes []*lane) error {
	srv := newServer(nil)
	hosts := map[string]http.Handler{"mix": srv.Handler()}
	clients := make([]*client.Client, len(lanes))
	for i, l := range lanes {
		clients[i] = laneClient(l, "http://mix", hosts)
	}
	ops := mixOps(w.rc.Seed, w.rc.Part, r, len(w.cells), len(lanes))
	eachLane(lanes, func(l *lane) {
		w.runOps(ctx, l, traced, ops[l.id], func(genOp) *client.Client { return clients[l.id] })
	})
	if err := w.addCounts(ctx, clients[0], nil); err != nil {
		return err
	}
	return drain(srv)
}

func (w *mixWorkload) finish(ctx context.Context, lanes []*lane, res *runResult) error {
	// Every fourth cold op of a lane is streamed: 57 keys give 14 of 57.
	got, n := w.finishService(lanes, res, map[uint8]float64{classHit: 0.75})
	if cold := got[classMiss] + got[classStreamMiss]; cold*4 != n {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("%d of %d ops were cold, designed exactly a quarter", cold, n))
	}
	return nil
}

// ---- cluster3 ----

const replicas = 3

// timedPeer wraps the serve.Peer seam of one replica: the serving path's
// calls into the cluster tier become spans on the lane that owns the key.
type timedPeer struct {
	serve.Peer
	laneOf func(key string) *lane
}

func (p *timedPeer) Fill(ctx context.Context, key string) ([]byte, bool) {
	tr := p.laneOf(key).activeTracer()
	tr.begin("cluster.peer_fill")
	body, ok := p.Peer.Fill(ctx, key)
	tr.end()
	return body, ok
}

func (p *timedPeer) Store(key string, spec hfstream.Spec, body []byte) {
	tr := p.laneOf(key).activeTracer()
	tr.begin("cluster.store")
	p.Peer.Store(key, spec, body)
	tr.end()
}

type clusterWorkload struct {
	serviceBase
	owners  [][]int // per cell: owner replicas, primary first
	keysRun int     // distinct keys requested, summed over epochs
}

func replicaID(i int) string { return fmt.Sprintf("r%d", i) }

func (w *clusterWorkload) setup(ctx context.Context, rc runConfig, clock *ytClock, res *runResult) error {
	if err := w.setupCells(ctx, rc, clock, mixCells(), res); err != nil {
		return err
	}
	ids := make([]string, replicas)
	for i := range ids {
		ids[i] = replicaID(i)
	}
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		return err
	}
	for _, k := range w.keys {
		var own []int
		for _, id := range ring.Owners(k, cluster.DefaultReplication) {
			var i int
			fmt.Sscanf(id, "r%d", &i)
			own = append(own, i)
		}
		w.owners = append(w.owners, own)
	}
	return nil
}

// round is one epoch: a fresh three-replica cluster wired in process
// through the peering layer's HTTPClient seam.
func (w *clusterWorkload) round(ctx context.Context, r int, traced bool, lanes []*lane) error {
	ops := clusterOps(w.rc.Seed, w.rc.Part, r, len(lanes), w.owners)
	// Each key belongs to one lane this epoch; a peer call for the key is
	// part of that lane's op, whichever goroutine carries it.
	// The map is complete before the first op and only read after.
	laneOfKey := make(map[string]*lane)
	for i, list := range ops {
		for _, op := range list {
			laneOfKey[w.keys[op.Cell]] = lanes[i]
		}
	}
	laneOf := func(key string) *lane { return laneOfKey[key] }

	hosts := make(map[string]http.Handler)
	mesh := &inproc{hosts: hosts, tracerFor: func(req *http.Request) *tracer {
		// Only a fill is on an op's path; a store is published from the
		// peering layer's own goroutines after the op has returned.
		if req.Method != http.MethodGet {
			return nil
		}
		if l := laneOf(strings.TrimPrefix(req.URL.Path, "/v1/peer/")); l != nil {
			return l.activeTracer()
		}
		return nil
	}}
	var servers []*serve.Server
	var peerings []*cluster.Peering
	for i := 0; i < replicas; i++ {
		peers := make(map[string]string)
		for j := 0; j < replicas; j++ {
			if j != i {
				peers[replicaID(j)] = "http://" + replicaID(j)
			}
		}
		p, err := cluster.New(cluster.Config{Self: replicaID(i), Peers: peers, HTTPClient: &http.Client{Transport: mesh}})
		if err != nil {
			return err
		}
		srv := newServer(&timedPeer{Peer: p, laneOf: laneOf})
		hosts[replicaID(i)] = srv.Handler()
		servers, peerings = append(servers, srv), append(peerings, p)
	}
	clients := make([][]*client.Client, len(lanes))
	for i, l := range lanes {
		for j := 0; j < replicas; j++ {
			clients[i] = append(clients[i], laneClient(l, "http://"+replicaID(j), hosts))
		}
	}
	eachLane(lanes, func(l *lane) {
		w.runOps(ctx, l, traced, ops[l.id], func(op genOp) *client.Client { return clients[l.id][op.Replica] })
	})
	w.keysRun += len(w.cells)
	for i, srv := range servers {
		fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := peerings[i].Flush(fctx)
		cancel()
		if err != nil {
			return fmt.Errorf("flush r%d: %w", i, err)
		}
		if err := w.addCounts(ctx, clients[0][i], nil); err != nil {
			return err
		}
		if err := drain(srv); err != nil {
			return err
		}
		peerings[i].Close()
	}
	return nil
}

func (w *clusterWorkload) finish(ctx context.Context, lanes []*lane, res *runResult) error {
	third := 1.0 / 3
	w.finishService(lanes, res, map[uint8]float64{classMiss: third, classPeer: third, classHit: third})
	if !w.rc.Trace {
		return nil
	}
	var fill, store []float64
	for _, l := range lanes {
		total := opTotals(l.tr.spans)
		for _, o := range l.ops {
			if !o.Traced {
				continue
			}
			t := total[o.OpID]
			// A miss also asks the other owner before it simulates; the
			// fill that finds the bytes is the peer-classed op's.
			if ns, ok := t["cluster.peer_fill"]; ok && o.Class == classPeer {
				fill = append(fill, float64(ns)/o.YT)
			}
			if ns, ok := t["cluster.store"]; ok {
				store = append(store, float64(ns)/o.YT)
			}
		}
	}
	h := res.Layers
	h["cluster.peer_fill_yt"] = median(fill)
	h["cluster.store_yt"] = median(store)
	p := w.peers
	h["cluster.fills"] = float64(p.Fills)
	h["cluster.peer_hits"] = float64(p.Hits)
	h["cluster.peer_misses"] = float64(p.Misses)
	h["cluster.stores"] = float64(p.Stores)
	h["cluster.store_dropped"] = float64(p.StoreDropped)
	h["cluster.breaker_opens"] = float64(p.BreakerOpens)
	h["cluster.integrity_drops"] = float64(p.IntegrityDrops)
	if p.Fills > 0 {
		h["cluster.peer_hit_share"] = float64(p.Hits) / float64(p.Fills)
	}
	if w.keysRun > 0 {
		h["cluster.sims_per_key"] = float64(w.counts.Runs) / float64(w.keysRun)
	}
	return nil
}
