package hfstream_test

// The differential battery: one test file asserting, over a grid of
// small workloads x all seven designs plus the N-core machines, that every
// way of producing a metrics snapshot yields byte-identical JSON —
//
//	(a) serial vs parallel experiment runner,
//	(b) direct library API vs a serve/ HTTP round trip (cold, cached,
//	    streamed, swept, and the staged modes),
//	(c) a 3-replica peered cluster vs the direct API, across the cold,
//	    local-hit, peer-fill and coalesced provenances, with each cell
//	    simulated exactly once cluster-wide.
//
// Every row is diffed against one reference matrix, simulated once per
// test binary. The dual-core half of the grid uses the two benchmarks the
// golden snapshots cover — the fastest of the nine — so the battery stays
// cheap enough for tier 1; the N-core half is two IR kernels x
// {2,3,4,6,8} cores x the k-stage and parallel-stage design points, the
// 3- to 8-stage DSWP chains and PS-DSWP replicated workers the dual-core
// half cannot reach, each with auto-derived queue routes. Fast-forward on
// vs off is internal/exp's two-kernel battery (TestRunsAreOrderIndependent
// and TestNCoreGridFastForwardDifferential), over a superset of these
// cells. This file is an external test (package hfstream_test)
// because it imports serve, which itself imports hfstream. All HTTP
// traffic goes through the typed serve/client package — the battery
// doubles as that client's integration test.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hfstream"
	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/sim"
	"hfstream/serve"
	"hfstream/serve/client"
	"hfstream/serve/cluster"
)

var diffBenches = []string{"bzip2", "adpcmdec"}

// diffConfigs mirrors hfstream.Designs() at the internal/design level,
// where the runner's Job type lives; TestDifferentialGridCoversDesigns
// pins the correspondence.
func diffConfigs() []design.Config {
	return []design.Config{
		design.ExistingConfig(), design.MemOptiConfig(), design.SyncOptiConfig(),
		design.SyncOptiQ64Config(), design.SyncOptiSCConfig(), design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
	}
}

func TestDifferentialGridCoversDesigns(t *testing.T) {
	designs := hfstream.Designs()
	cfgs := diffConfigs()
	if len(designs) != len(cfgs) {
		t.Fatalf("grid has %d configs, public API has %d designs", len(cfgs), len(designs))
	}
	for i, d := range designs {
		if cfgs[i].Name() != d.Name() {
			t.Fatalf("grid config %d is %q, public design is %q", i, cfgs[i].Name(), d.Name())
		}
	}
}

// annotatedJSON renders a runner result exactly as WithMetrics does for
// the same run: the snapshot plus benchmark/design annotations.
func annotatedJSON(t *testing.T, res *sim.Result, bench, designName string) []byte {
	t.Helper()
	m := res.Metrics()
	m.Benchmark = bench
	m.Design = designName
	buf, err := sim.MetricsJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// scaleBenches are IR kernels whose dependence structure fills eight
// pipeline stages and replicates for parallel-stage workers.
var scaleBenches = []string{"fft2", "equake"}

// scaleConfigs enumerates the N-core grid along the scaling study's axis
// (exp.ScalingCores): each chain design at every count from the paper's 2
// up, plus the parallel-stage point from 3 cores (its minimum: two
// workers and a merger).
func scaleConfigs() []design.Config {
	var out []design.Config
	for _, k := range exp.ScalingCores {
		if k >= 2 {
			out = append(out, design.SyncOptiSCQ64Config().WithCores(k), design.HeavyWTConfig().WithCores(k))
		}
		if k >= 3 {
			out = append(out, design.MPMCQ64Config().WithCores(k))
		}
	}
	return out
}

// dualJobs is the grid's dual-core half: the golden benchmarks
// single-threaded and on every design.
func dualJobs() []exp.Job {
	var jobs []exp.Job
	for _, bench := range diffBenches {
		jobs = append(jobs, exp.Job{Bench: bench, Single: true})
		for _, cfg := range diffConfigs() {
			jobs = append(jobs, exp.Job{Bench: bench, Config: cfg})
		}
	}
	return jobs
}

// scaleJobs is the grid's N-core half.
func scaleJobs() []exp.Job {
	var jobs []exp.Job
	for _, bench := range scaleBenches {
		for _, cfg := range scaleConfigs() {
			jobs = append(jobs, exp.Job{Bench: bench, Config: cfg})
		}
	}
	return jobs
}

// diffJobs is the whole grid: the dual-core half, then the N-core half.
func diffJobs() []exp.Job { return append(dualJobs(), scaleJobs()...) }

// jobLabel mirrors the design annotation finishRun applies.
func jobLabel(j exp.Job) string {
	if j.Single {
		return "SINGLE"
	}
	return j.Config.Name()
}

// diffSpec is the served view of a grid cell: the public Spec a client
// sends for it. Its reference-matrix key stays j.Name().
func diffSpec(j exp.Job) hfstream.Spec {
	if j.Single {
		return hfstream.Spec{Bench: j.Bench, Single: true}
	}
	return hfstream.Spec{Bench: j.Bench, Design: j.Config.Name()}
}

// reference holds the grid's annotated snapshots once referenceMatrix has
// simulated them.
var reference map[string][]byte

// referenceMatrix runs the full grid once per test binary on a serial
// runner (the harness's original mode) and returns annotated snapshots
// keyed by job name. The parallel and served variants are all diffed
// against these bytes.
func referenceMatrix(t *testing.T) map[string][]byte {
	t.Helper()
	if reference != nil {
		return reference
	}
	results := (&exp.Runner{Workers: 1}).Run(context.Background(), diffJobs())
	if err := exp.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	ref := make(map[string][]byte, len(results))
	for _, r := range results {
		ref[r.Job.Name()] = annotatedJSON(t, r.Res, r.Job.Bench, jobLabel(r.Job))
	}
	reference = ref
	return ref
}

// checkParallelRunner runs jobs on a parallel runner and diffs every
// snapshot against the serial reference.
func checkParallelRunner(t *testing.T, jobs []exp.Job) {
	t.Helper()
	ref := referenceMatrix(t)
	results := (&exp.Runner{Workers: 4}).Run(context.Background(), jobs)
	if err := exp.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		got := annotatedJSON(t, r.Res, r.Job.Bench, jobLabel(r.Job))
		if !bytes.Equal(got, ref[r.Job.Name()]) {
			t.Errorf("%s: parallel runner snapshot differs from serial", r.Job.Name())
		}
	}
}

func TestDifferentialSerialVsParallelRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	checkParallelRunner(t, dualJobs())
}

func TestScalingDifferentialSerialVsParallelRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("N-core grid")
	}
	checkParallelRunner(t, scaleJobs())
}

// mustRun executes spec through the typed client and fails the test on
// any error.
func mustRun(t *testing.T, cl *client.Client, spec hfstream.Spec) *client.RunResult {
	t.Helper()
	res, err := cl.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("client.Run(%+v): %v", spec, err)
	}
	return res
}

// checkServeRoundTrip serves jobs cold and then cached, diffing every
// body against the serial reference.
func checkServeRoundTrip(t *testing.T, jobs []exp.Job) {
	t.Helper()
	ref := referenceMatrix(t)
	ts := httptest.NewServer(serve.New(serve.Config{Workers: 2}).Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	for _, j := range jobs {
		name, spec := j.Name(), diffSpec(j)
		cold := mustRun(t, cl, spec)
		if cold.Cache != "miss" {
			t.Fatalf("%s cold: cache=%q", name, cold.Cache)
		}
		if !bytes.Equal(cold.Body, ref[name]) {
			t.Errorf("%s: served body differs from direct API snapshot", name)
		}
		hot := mustRun(t, cl, spec)
		if hot.Cache != "hit" {
			t.Fatalf("%s hot: cache=%q", name, hot.Cache)
		}
		if !bytes.Equal(hot.Body, cold.Body) {
			t.Errorf("%s: cached body differs from cold body", name)
		}
	}
}

func TestDifferentialServeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	checkServeRoundTrip(t, dualJobs())
}

func TestScalingDifferentialServeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("N-core grid")
	}
	checkServeRoundTrip(t, scaleJobs())
}

func TestDifferentialServeStaged(t *testing.T) {
	if testing.Short() {
		t.Skip("staged grid")
	}
	// adpcmdec partitions into three stages (see the multistage tests);
	// the served "_3CORE" name must match the direct run on the
	// retargeted design byte for byte.
	b, err := hfstream.BenchmarkByName("adpcmdec")
	if err != nil {
		t.Fatal(err)
	}
	d := hfstream.SyncOptiSCQ64
	var direct bytes.Buffer
	if _, err := hfstream.RunCtx(context.Background(), b, d.WithCores(3),
		hfstream.WithMetrics(&direct)); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	defer ts.Close()
	res := mustRun(t, client.New(ts.URL),
		hfstream.Spec{Bench: "adpcmdec", Design: d.Name() + "_3CORE"})
	if !bytes.Equal(res.Body, direct.Bytes()) {
		t.Error("staged serve body differs from the RunCtx(d.WithCores(3)) snapshot")
	}
}

// runStreamEvents streams one run through the typed client and returns
// every event.
func runStreamEvents(t *testing.T, cl *client.Client, spec hfstream.Spec, opts client.StreamOpts) []serve.StreamEvent {
	t.Helper()
	st, err := cl.RunStream(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("RunStream(%+v): %v", spec, err)
	}
	defer st.Close()
	events, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty run stream")
	}
	return events
}

// sweepEvents streams one sweep through the typed client and returns
// every event.
func sweepEvents(t *testing.T, cl *client.Client, req serve.SweepRequest) []serve.StreamEvent {
	t.Helper()
	st, err := cl.Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("Sweep(%+v): %v", req, err)
	}
	defer st.Close()
	events, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty sweep stream")
	}
	return events
}

// metricsEvents filters a stream down to its per-run result events.
func metricsEvents(events []serve.StreamEvent) []serve.StreamEvent {
	var out []serve.StreamEvent
	for _, ev := range events {
		if ev.Type == "metrics" {
			out = append(out, ev)
		}
	}
	return out
}

// cellName maps a sweep cell's spec back to the reference-matrix key.
func cellName(spec *hfstream.Spec) string {
	if spec.Single {
		return spec.Bench + "/single"
	}
	return spec.Bench + "/" + spec.Design
}

// TestDifferentialStreamedRun: the metrics event of a streamed /run
// carries, as a string, the exact bytes of the non-streaming response
// and of the direct-API snapshot — cold (with progress events
// interleaved, proving progress delivery does not perturb the metrics),
// cached, and under concurrent coalesced streams.
func TestDifferentialStreamedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	ref := referenceMatrix(t)
	ts := httptest.NewServer(serve.New(serve.Config{Workers: 2}).Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	for _, j := range diffJobs() {
		name, spec := j.Name(), diffSpec(j)
		// Cold: a tight progress cadence maximizes interleaved events.
		events := runStreamEvents(t, cl, spec, client.StreamOpts{ProgressEvery: 5000})
		mev := metricsEvents(events)
		if len(mev) != 1 || mev[0].Cache != "miss" {
			t.Fatalf("%s cold: %d metrics events, cache=%q", name, len(mev), mev[0].Cache)
		}
		if !bytes.Equal([]byte(mev[0].Body), ref[name]) {
			t.Errorf("%s: streamed cold body differs from direct API snapshot", name)
		}
		// Cached: the hit must replay the identical bytes.
		events = runStreamEvents(t, cl, spec, client.StreamOpts{})
		mev = metricsEvents(events)
		if len(mev) != 1 || mev[0].Cache != "hit" {
			t.Fatalf("%s hot: %d metrics events, cache=%q", name, len(mev), mev[0].Cache)
		}
		if !bytes.Equal([]byte(mev[0].Body), ref[name]) {
			t.Errorf("%s: streamed cached body differs from direct API snapshot", name)
		}
		// Non-streaming /run must agree byte for byte with the stream.
		plain := mustRun(t, cl, spec)
		if !bytes.Equal(plain.Body, []byte(mev[0].Body)) {
			t.Errorf("%s: non-streaming body differs from streamed body", name)
		}
	}

	// Coalesced: concurrent streamed requests for one uncached spec all
	// deliver the same reference bytes, whichever of them led the flight.
	fresh := httptest.NewServer(serve.New(serve.Config{Workers: 2}).Handler())
	defer fresh.Close()
	fcl := client.New(fresh.URL)
	const fanIn = 6
	bodies := make([]string, fanIn)
	var wg sync.WaitGroup
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := fcl.RunStream(context.Background(),
				hfstream.Spec{Bench: "bzip2", Design: "EXISTING"}, client.StreamOpts{})
			if err != nil {
				return
			}
			defer st.Close()
			events, err := st.All()
			if err != nil {
				return
			}
			for _, ev := range metricsEvents(events) {
				bodies[i] = ev.Body
			}
		}(i)
	}
	wg.Wait()
	for i, body := range bodies {
		if !bytes.Equal([]byte(body), ref["bzip2/EXISTING"]) {
			t.Errorf("coalesced stream %d: body differs from direct API snapshot", i)
		}
	}
}

// TestDifferentialSweep: every cell of a /sweep grid matches the
// direct-API snapshot byte for byte, a sweep overlapping previously-run
// cells only simulates the new ones, and a re-submitted sweep runs
// nothing at all — pinned through the server's run counter, not just
// the per-event cache tags.
func TestDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	ref := referenceMatrix(t)
	srv := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	checkCells := func(events []serve.StreamEvent, wantCells int) {
		t.Helper()
		for _, ev := range metricsEvents(events) {
			if ev.Spec == nil {
				t.Fatal("sweep metrics event without a spec")
			}
			name := cellName(ev.Spec)
			if !bytes.Equal([]byte(ev.Body), ref[name]) {
				t.Errorf("%s: sweep cell body differs from direct API snapshot", name)
			}
		}
		done := events[len(events)-1]
		if done.Type != "done" || done.Cells != wantCells || done.Errors != 0 {
			t.Fatalf("done = %+v, want %d clean cells", done, wantCells)
		}
	}

	// Half the grid first: one bench across all designs plus single.
	perBench := len(hfstream.Designs()) + 1
	partial := sweepEvents(t, cl, serve.SweepRequest{
		Benches: []string{"bzip2"}, Designs: []string{"*"}, Single: true})
	checkCells(partial, perBench)
	if runs := srv.Metrics().Runs; runs != uint64(perBench) {
		t.Fatalf("partial sweep ran %d simulations, want %d", runs, perBench)
	}

	// The full grid: only the second bench's cells are cache misses.
	fullReq := serve.SweepRequest{
		Benches: []string{"bzip2", "adpcmdec"}, Designs: []string{"*"}, Single: true}
	full := sweepEvents(t, cl, fullReq)
	checkCells(full, 2*perBench)
	fullDone := full[len(full)-1]
	if fullDone.Ran != perBench || fullDone.Hits != perBench {
		t.Fatalf("full sweep ran=%d hits=%d, want only the new bench simulated (%d each)",
			fullDone.Ran, fullDone.Hits, perBench)
	}
	if runs := srv.Metrics().Runs; runs != uint64(2*perBench) {
		t.Fatalf("after full sweep: %d simulations, want %d", runs, 2*perBench)
	}

	// Re-submitting the identical sweep simulates nothing.
	again := sweepEvents(t, cl, fullReq)
	checkCells(again, 2*perBench)
	againDone := again[len(again)-1]
	if againDone.Ran != 0 || againDone.Hits != 2*perBench {
		t.Fatalf("re-sweep ran=%d hits=%d, want all cells cached", againDone.Ran, againDone.Hits)
	}
	if runs := srv.Metrics().Runs; runs != uint64(2*perBench) {
		t.Fatalf("re-sweep started new simulations: %d, want %d", runs, 2*perBench)
	}
}

// ---- cluster battery ------------------------------------------------

// diffCluster is an in-process peered cluster for the battery: a
// cluster.Loopback and one typed client per replica.
type diffCluster struct {
	*cluster.Loopback
	clients []*client.Client
}

func newDiffCluster(t *testing.T, n int) *diffCluster {
	t.Helper()
	lb, err := cluster.NewLoopback(n, func(i int, pc *cluster.Config, sc *serve.Config) { sc.Workers = 1 })
	if err != nil {
		t.Fatal(err)
	}
	c := &diffCluster{Loopback: lb}
	hc := &http.Client{Transport: &http.Transport{}}
	for _, r := range lb.Replicas {
		c.clients = append(c.clients, client.New(r.URL, client.WithHTTPClient(hc)))
	}
	t.Cleanup(func() {
		hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := lb.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return c
}

// flush settles every replica's pending peer store publications.
func (c *diffCluster) flush(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, r := range c.Replicas {
		if err := r.Peering.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// index maps a replica ID back to its slot.
func (c *diffCluster) index(t *testing.T, id string) int {
	t.Helper()
	for i, r := range c.Replicas {
		if r.ID == id {
			return i
		}
	}
	t.Fatalf("unknown replica %q", id)
	return -1
}

// totalRuns sums the simulation counters across the cluster.
func (c *diffCluster) totalRuns() uint64 {
	var total uint64
	for _, r := range c.Replicas {
		total += r.Server.Metrics().Runs
	}
	return total
}

// TestDifferentialCluster pins the tentpole invariant: a 3-replica
// peered cluster answers byte-identically to the direct library API on
// every provenance path — cold miss on the key's owner, peer fill on a
// non-owner, local hit after the fill, and the replicated owner's copy
// — and the cluster as a whole simulates each cell exactly once.
func TestDifferentialCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	ref := referenceMatrix(t)
	c := newDiffCluster(t, 3)

	jobs := diffJobs()
	for _, j := range jobs {
		name, spec := j.Name(), diffSpec(j)
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key, err := norm.Key()
		if err != nil {
			t.Fatal(err)
		}
		// The ring is identical on every replica; route like a balancer
		// would: cold traffic lands on the key's primary owner.
		owners := c.Replicas[0].Peering.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("%s: %d owners, want replication 2", name, len(owners))
		}
		primary := c.index(t, owners[0])
		secondary := c.index(t, owners[1])
		nonOwner := 3 - primary - secondary // the remaining replica of {0,1,2}

		cold := mustRun(t, c.clients[primary], spec)
		if cold.Cache != "miss" || cold.Key != key {
			t.Fatalf("%s cold on owner: cache=%q key=%q want miss/%s", name, cold.Cache, cold.Key, key)
		}
		if !bytes.Equal(cold.Body, ref[name]) {
			t.Errorf("%s: owner body differs from direct API snapshot", name)
		}

		// Let the async store publication reach the secondary owner, then
		// read the key everywhere.
		c.flush(t)

		peerRes := mustRun(t, c.clients[nonOwner], spec)
		if peerRes.Cache != "peer" {
			t.Fatalf("%s on non-owner: cache=%q, want peer fill", name, peerRes.Cache)
		}
		if !bytes.Equal(peerRes.Body, ref[name]) {
			t.Errorf("%s: peer-filled body differs from direct API snapshot", name)
		}

		local := mustRun(t, c.clients[nonOwner], spec)
		if local.Cache != "hit" {
			t.Fatalf("%s non-owner replay: cache=%q, want local hit after fill", name, local.Cache)
		}
		if !bytes.Equal(local.Body, ref[name]) {
			t.Errorf("%s: post-fill local body differs from direct API snapshot", name)
		}

		replicated := mustRun(t, c.clients[secondary], spec)
		if replicated.Cache != "hit" {
			t.Fatalf("%s on secondary owner: cache=%q, want replicated local hit", name, replicated.Cache)
		}
		if !bytes.Equal(replicated.Body, ref[name]) {
			t.Errorf("%s: replicated body differs from direct API snapshot", name)
		}
	}

	// Four requests per cell, one simulation per cell, cluster-wide.
	if got, want := c.totalRuns(), uint64(len(jobs)); got != want {
		t.Errorf("cluster simulated %d times for %d cells, want one each", got, want)
	}

	// Coalesced under clustering: concurrent requests for one uncached
	// spec on one replica produce one flight and identical reference
	// bytes for every caller.
	b, err := hfstream.BenchmarkByName("adpcmdec")
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if _, err := hfstream.RunCtx(context.Background(), b, hfstream.SyncOptiSCQ64.WithCores(3),
		hfstream.WithMetrics(&direct)); err != nil {
		t.Fatal(err)
	}
	staged := hfstream.Spec{Bench: "adpcmdec", Design: hfstream.SyncOptiSCQ64.Name() + "_3CORE"}
	before := c.Replicas[0].Server.Metrics().Runs
	const fanIn = 6
	results := make([]*client.RunResult, fanIn)
	var wg sync.WaitGroup
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.clients[0].Run(context.Background(), staged)
			if err == nil {
				results[i] = res
			}
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("coalesced cluster request %d failed", i)
		}
		if !bytes.Equal(res.Body, direct.Bytes()) {
			t.Errorf("coalesced cluster request %d: body differs from the RunCtx(WithCores(3)) snapshot", i)
		}
	}
	if ran := c.Replicas[0].Server.Metrics().Runs - before; ran != 1 {
		t.Errorf("coalesced fan-in simulated %d times, want 1", ran)
	}
}

// TestDifferentialClusterResweep: after one replica sweeps the full
// grid, re-running the sweep on a different replica simulates nothing —
// every cell arrives from that replica's own (replicated) cache or a
// peer fill, byte-identical to the direct API.
func TestDifferentialClusterResweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	ref := referenceMatrix(t)
	c := newDiffCluster(t, 3)
	req := serve.SweepRequest{Benches: diffBenches, Designs: []string{"*"}, Single: true}
	cells := len(diffBenches) * (len(hfstream.Designs()) + 1)

	checkCells := func(events []serve.StreamEvent) {
		t.Helper()
		for _, ev := range metricsEvents(events) {
			if ev.Spec == nil {
				t.Fatal("sweep metrics event without a spec")
			}
			name := cellName(ev.Spec)
			if !bytes.Equal([]byte(ev.Body), ref[name]) {
				t.Errorf("%s: cluster sweep cell differs from direct API snapshot", name)
			}
		}
		done := events[len(events)-1]
		if done.Type != "done" || done.Cells != cells || done.Errors != 0 {
			t.Fatalf("done = %+v, want %d clean cells", done, cells)
		}
	}

	first := sweepEvents(t, c.clients[0], req)
	checkCells(first)
	if got := c.totalRuns(); got != uint64(cells) {
		t.Fatalf("first sweep simulated %d times for %d cells", got, cells)
	}

	// Settle the store publications, then sweep from the other replicas:
	// zero new simulations anywhere, and the done tallies show only local
	// hits and peer fills.
	c.flush(t)
	for _, idx := range []int{1, 2} {
		events := sweepEvents(t, c.clients[idx], req)
		checkCells(events)
		done := events[len(events)-1]
		if done.Ran != 0 {
			t.Errorf("replica %d re-sweep simulated %d cells, want 0", idx, done.Ran)
		}
		if done.Hits+done.PeerHits != cells {
			t.Errorf("replica %d re-sweep hits=%d peer_hits=%d, want %d total",
				idx, done.Hits, done.PeerHits, cells)
		}
	}
	if got := c.totalRuns(); got != uint64(cells) {
		t.Errorf("cluster re-sweeps simulated new cells: %d total runs for %d cells", got, cells)
	}
}
