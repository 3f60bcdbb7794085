// Command hfload drives an hfserve cluster with a closed loop of Zipf-
// skewed requests and emits an SLO report as JSON: latency percentiles,
// shed rate, the cache-hit split (local / peer / coalesced), an error
// budget by typed code, and the peering-tier counters.
//
// Two modes:
//
//	hfload -scale 1,3 ...        in-process mode (default): for each listed
//	                             replica count, spin up that many peered
//	                             serve.Server replicas on ephemeral ports
//	                             and drive the same seeded workload at each.
//	hfload -urls http://a,http://b ...
//	                             external mode: drive already-running
//	                             replicas (one phase).
//
// The workload is a closed loop: -conc workers each pick a spec from the
// (benches x designs x single) cell universe via a seeded Zipf
// draw (-skew; sweeps make some specs orders of magnitude hotter than
// others, and Zipf models that), round-robin across replicas — a
// load-balancer's view of the cluster — and issue /v1/run through the
// typed serve/client package.
//
// In-process phases share one machine, so their throughput figures say
// what the box did, not how the cluster scales: three replicas have the
// cores one replica had. What -scale is for is the behaviour of a peered
// cluster under load — that nothing errors or is shed, that the peer
// tier serves fills, how the hits split. The measured service numbers
// are the serve_hot, serve_mix and cluster3 workloads of bench/spine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
	"hfstream/serve/cluster"
)

func main() {
	var (
		scaleFlag   = flag.String("scale", "1,3", "in-process mode: comma list of replica counts to phase through")
		urlsFlag    = flag.String("urls", "", "external mode: comma list of replica base URLs (disables -scale)")
		benchesFlag = flag.String("benches", "bzip2,adpcmdec", "comma list of benchmarks, or *")
		designsFlag = flag.String("designs", "*", "comma list of design points, or *")
		single      = flag.Bool("single", true, "include each benchmark's single-threaded baseline cell")
		conc        = flag.Int("conc", 24, "closed-loop worker count (offered concurrency)")
		retries     = flag.Int("retries", 0, "retry attempts per request beyond the first (0 = no retry layer)")
		duration    = flag.Duration("duration", 3*time.Second, "measurement duration per phase")
		skew        = flag.Float64("skew", 1.2, "Zipf skew s (> 1) over the spec universe")
		seed        = flag.Int64("seed", 1, "workload seed (per-worker streams derive from it)")
		workers     = flag.Int("workers", 1, "per-replica simulation pool size (in-process mode)")
		queueDepth  = flag.Int("queue", serve.DefaultQueueDepth, "per-replica job queue depth (in-process mode)")
		cacheMB     = flag.Int64("cache-mb", 64, "per-replica result cache budget in MiB (in-process mode)")
		replication = flag.Int("replication", cluster.DefaultReplication, "owner shards per key for peer fill/store")
		peerTimeout = flag.Duration("peer-timeout", cluster.DefaultFillTimeout, "per-attempt peer fill budget")
		outPath     = flag.String("out", "-", "report path, or - for stdout")
		label       = flag.String("label", "serve", "report label")
		minPeerHits = flag.Int("min-peer-hits", 0, "exit 1 unless some multi-replica phase served at least this many requests from the peer cache tier")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The spec universe the Zipf draw indexes is a /v1/sweep grid, in the
	// server's own expansion order. N-core machines join it by design
	// name ("HEAVYWT_3CORE", "MPMC").
	benches, designs := splitList(*benchesFlag), splitList(*designsFlag)
	cells, err := serve.SweepRequest{Benches: benches, Designs: designs, Single: *single}.Cells()
	if err != nil {
		fatal(err)
	}
	if *skew <= 1 {
		fatal(fmt.Errorf("-skew must be > 1 (Zipf s parameter), got %v", *skew))
	}

	load := loadConfig{
		cells:    cells,
		conc:     *conc,
		duration: *duration,
		skew:     *skew,
		seed:     *seed,
		retries:  *retries,
	}

	rep := report{
		Label:       *label,
		GoVersion:   runtime.Version(),
		FastForward: os.Getenv("HFSTREAM_NO_FASTFORWARD") == "",
	}
	rep.Config.Benches = benches
	rep.Config.Designs = designs
	rep.Config.Single = *single
	rep.Config.Cells = len(cells)
	rep.Config.Conc = *conc
	rep.Config.DurationSec = duration.Seconds()
	rep.Config.Skew = *skew
	rep.Config.Seed = *seed
	rep.Config.WorkersPerReplica = *workers
	rep.Config.Replication = *replication
	rep.Config.Retries = *retries

	if *urlsFlag != "" {
		urls := splitList(*urlsFlag)
		rep.Phases = append(rep.Phases, runPhase(ctx, urls, load))
	} else {
		scales, err := parseInts(*scaleFlag)
		if err != nil || len(scales) == 0 {
			fatal(fmt.Errorf("bad -scale %q: want a comma list of replica counts", *scaleFlag))
		}
		for _, n := range scales {
			ph, err := runInprocPhase(ctx, n, inprocConfig{
				workers:     *workers,
				queueDepth:  *queueDepth,
				cacheBytes:  *cacheMB << 20,
				replication: *replication,
				peerTimeout: *peerTimeout,
			}, load)
			if err != nil {
				fatal(err)
			}
			rep.Phases = append(rep.Phases, ph)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *outPath == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hfload: wrote %s\n", *outPath)
	}
	for _, ph := range rep.Phases {
		fmt.Fprintf(os.Stderr,
			"hfload: replicas=%d throughput=%.1f rps p50=%.2fms p95=%.2fms p99=%.2fms shed=%.3f local=%.3f peer=%.3f\n",
			ph.Replicas, ph.ThroughputRPS, ph.P50Ms, ph.P95Ms, ph.P99Ms,
			ph.ShedRate, ph.HitRatioLocal, ph.HitRatioPeer)
		fmt.Fprintf(os.Stderr, "hfload: error-budget replicas=%d %s\n", ph.Replicas, ph.ErrorBudget.line())
	}

	// SLO check (CI smoke): the peer cache tier must have served
	// something. A count, not a ratio: the requests an unpaced loop gets
	// through are a property of the box.
	if *minPeerHits > 0 {
		best := 0
		for _, ph := range rep.Phases {
			if ph.Replicas > 1 && ph.HitsPeer > best {
				best = ph.HitsPeer
			}
		}
		if best < *minPeerHits {
			fmt.Fprintf(os.Stderr, "hfload: FAIL %d peer hits < required %d\n", best, *minPeerHits)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hfload:", err)
	os.Exit(2)
}

func splitList(raw string) []string {
	var out []string
	for _, s := range strings.Split(raw, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func parseInts(raw string) ([]int, error) {
	var out []int
	for _, s := range splitList(raw) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func loadHTTPClient(conc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conc * 2,
		MaxIdleConnsPerHost: conc,
	}}
}

// ---- report schema --------------------------------------------------

type report struct {
	Label       string `json:"label"`
	GoVersion   string `json:"go_version"`
	FastForward bool   `json:"fast_forward"`
	Config      struct {
		Benches           []string `json:"benches"`
		Designs           []string `json:"designs"`
		Single            bool     `json:"single"`
		Cells             int      `json:"cells"`
		Conc              int      `json:"conc"`
		DurationSec       float64  `json:"duration_sec"`
		Skew              float64  `json:"zipf_skew"`
		Seed              int64    `json:"seed"`
		WorkersPerReplica int      `json:"workers_per_replica"`
		Replication       int      `json:"replication"`
		Retries           int      `json:"retries"`
	} `json:"config"`
	Phases []phaseReport `json:"phases"`
}

type phaseReport struct {
	Replicas  int `json:"replicas"`
	Requests  int `json:"requests"`
	Succeeded int `json:"succeeded"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`

	Shed     int     `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	Errors   int     `json:"errors"`

	// Cache provenance split over successful responses: Misses were
	// fresh simulations, HitsLocal served from the replica's own cache,
	// HitsPeer filled from the cluster cache tier, Coalesced joined a
	// concurrent identical request.
	Misses        int     `json:"misses"`
	HitsLocal     int     `json:"hits_local"`
	HitsPeer      int     `json:"hits_peer"`
	Coalesced     int     `json:"coalesced"`
	HitRatioLocal float64 `json:"hit_ratio_local"`
	HitRatioPeer  float64 `json:"hit_ratio_peer"`

	// ErrorBudget accounts for every failed request by typed error code
	// plus the resilience work spent absorbing transient failures.
	ErrorBudget errorBudget `json:"error_budget"`

	// Sims is the per-replica simulation count — across the phase, every
	// distinct key should be simulated once cluster-wide once peering
	// converges.
	Sims []uint64 `json:"sims_per_replica,omitempty"`
	// Peer aggregates the peering-tier counters over all replicas.
	Peer *serve.PeerStats `json:"peer,omitempty"`
}

// errorBudget is the per-phase resilience ledger: what failed (by
// typed code), what the retry layer absorbed, and how often circuit
// breakers opened on the peer tier.
type errorBudget struct {
	// ByCode counts failed requests by their typed error code
	// ("queue_full" entries are the shed requests; transport-level
	// failures appear under "transport").
	ByCode map[string]int `json:"by_code,omitempty"`
	// Retries is the total retry attempts the driver clients performed.
	Retries uint64 `json:"retries"`
	// BreakerOpens counts closed-to-open circuit-breaker transitions on
	// the peer tier (in-process mode, aggregated over replicas).
	BreakerOpens uint64 `json:"breaker_opens"`
}

// line renders the budget as the one-line stderr summary.
func (eb errorBudget) line() string {
	codes := make([]string, 0, len(eb.ByCode))
	for c := range eb.ByCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	parts := make([]string, 0, len(codes))
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, eb.ByCode[c]))
	}
	byCode := "-"
	if len(parts) > 0 {
		byCode = strings.Join(parts, ",")
	}
	return fmt.Sprintf("codes=%s retries=%d breaker-opens=%d", byCode, eb.Retries, eb.BreakerOpens)
}

// ---- load loop ------------------------------------------------------

type loadConfig struct {
	cells    []hfstream.Spec
	conc     int
	duration time.Duration
	skew     float64
	seed     int64
	retries  int // attempts per request beyond the first
}

type workerTally struct {
	latencies []float64 // ms, successes only
	succeeded int
	shed      int
	errors    int
	misses    int
	hitsLocal int
	hitsPeer  int
	coalesced int
	// error budget: failures split by typed error code, "transport" for
	// the ones that never produced an envelope.
	errCodes map[string]int
}

// runPhase drives the closed loop against the replicas at urls, through
// one pooled HTTP client it closes behind itself, and aggregates the SLO
// numbers.
func runPhase(ctx context.Context, urls []string, load loadConfig) phaseReport {
	hc := loadHTTPClient(load.conc)
	defer hc.CloseIdleConnections()
	clients := make([]*client.Client, len(urls))
	for i, u := range urls {
		opts := []client.Option{client.WithHTTPClient(hc)}
		if load.retries > 0 {
			// Bounded attempts with seeded-jitter backoff, honoring the
			// server's Retry-After.
			opts = append(opts, client.WithRetry(client.RetryPolicy{MaxAttempts: load.retries + 1, Seed: load.seed}))
		}
		clients[i] = client.New(u, opts...)
	}

	var rr atomic.Uint64
	tallies := make([]workerTally, load.conc)
	start := time.Now()
	deadline := start.Add(load.duration)

	var wg sync.WaitGroup
	for w := 0; w < load.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tally := &tallies[w]
			rng := rand.New(rand.NewSource(load.seed*1000 + int64(w)))
			zipf := rand.NewZipf(rng, load.skew, 1, uint64(len(load.cells)-1))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				spec := load.cells[zipf.Uint64()]
				cl := clients[rr.Add(1)%uint64(len(clients))]
				t0 := time.Now()
				res, err := cl.Run(ctx, spec)
				lat := time.Since(t0)
				if err != nil {
					if ctx.Err() != nil {
						continue
					}
					code := "transport" // no typed envelope came back
					var apiErr *client.APIError
					if errors.As(err, &apiErr) {
						code = apiErr.Detail.Code
					}
					if tally.errCodes == nil {
						tally.errCodes = make(map[string]int)
					}
					tally.errCodes[code]++
					if code == "queue_full" {
						tally.shed++
					} else {
						tally.errors++
					}
					continue
				}
				tally.succeeded++
				tally.latencies = append(tally.latencies, float64(lat.Microseconds())/1000)
				switch res.Cache {
				case "hit":
					tally.hitsLocal++
				case "peer":
					tally.hitsPeer++
				case "coalesced":
					tally.coalesced++
				default:
					tally.misses++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ph phaseReport
	ph.Replicas = len(clients)
	var all []float64
	for i := range tallies {
		t := &tallies[i]
		ph.Succeeded += t.succeeded
		ph.Shed += t.shed
		ph.Errors += t.errors
		ph.Misses += t.misses
		ph.HitsLocal += t.hitsLocal
		ph.HitsPeer += t.hitsPeer
		ph.Coalesced += t.coalesced
		all = append(all, t.latencies...)
		for code, cnt := range t.errCodes {
			if ph.ErrorBudget.ByCode == nil {
				ph.ErrorBudget.ByCode = make(map[string]int)
			}
			ph.ErrorBudget.ByCode[code] += cnt
		}
	}
	for _, cl := range clients {
		ph.ErrorBudget.Retries += cl.Retries()
	}
	ph.Requests = ph.Succeeded + ph.Shed + ph.Errors
	ph.ThroughputRPS = float64(ph.Succeeded) / elapsed.Seconds()
	if ph.Requests > 0 {
		ph.ShedRate = float64(ph.Shed) / float64(ph.Requests)
	}
	if ph.Succeeded > 0 {
		ph.HitRatioLocal = float64(ph.HitsLocal) / float64(ph.Succeeded)
		ph.HitRatioPeer = float64(ph.HitsPeer) / float64(ph.Succeeded)
	}
	sort.Float64s(all)
	ph.P50Ms = percentile(all, 0.50)
	ph.P95Ms = percentile(all, 0.95)
	ph.P99Ms = percentile(all, 0.99)
	return ph
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// ---- in-process cluster harness -------------------------------------

type inprocConfig struct {
	workers     int
	queueDepth  int
	cacheBytes  int64
	replication int
	peerTimeout time.Duration
}

// runInprocPhase builds an n-replica peered cluster on ephemeral ports,
// drives the load, and tears the cluster down.
func runInprocPhase(ctx context.Context, n int, cfg inprocConfig, load loadConfig) (phaseReport, error) {
	lb, err := cluster.NewLoopback(n, func(i int, pc *cluster.Config, sc *serve.Config) {
		pc.Replication = cfg.replication
		pc.FillTimeout = cfg.peerTimeout
		pc.HTTPClient = loadHTTPClient(load.conc)
		sc.Workers = cfg.workers
		sc.QueueDepth = cfg.queueDepth
		sc.CacheBytes = cfg.cacheBytes
	})
	if err != nil {
		return phaseReport{}, err
	}
	defer func() {
		closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lb.Close(closeCtx)
	}()

	urls := make([]string, n)
	for i, r := range lb.Replicas {
		urls[i] = r.URL
	}
	ph := runPhase(ctx, urls, load)
	var peerAgg serve.PeerStats
	for _, r := range lb.Replicas {
		m := r.Server.Metrics()
		ph.Sims = append(ph.Sims, m.Runs)
		if m.Peer != nil {
			peerAgg.Replicas = m.Peer.Replicas
			peerAgg.Fills += m.Peer.Fills
			peerAgg.Hits += m.Peer.Hits
			peerAgg.Misses += m.Peer.Misses
			peerAgg.Errors += m.Peer.Errors
			peerAgg.Timeouts += m.Peer.Timeouts
			peerAgg.SkippedDown += m.Peer.SkippedDown
			peerAgg.Stores += m.Peer.Stores
			peerAgg.StoreErrors += m.Peer.StoreErrors
			peerAgg.StoreDropped += m.Peer.StoreDropped
			peerAgg.PeersDown += m.Peer.PeersDown
			peerAgg.BreakerOpens += m.Peer.BreakerOpens
			peerAgg.IntegrityDrops += m.Peer.IntegrityDrops
		}
	}
	if n > 1 {
		ph.Peer = &peerAgg
		ph.ErrorBudget.BreakerOpens = peerAgg.BreakerOpens
	}
	return ph, nil
}
