// Command hfserve runs the simulation service: an HTTP JSON frontend
// over the deterministic simulator with content-addressed result
// caching, request coalescing, bounded-queue load shedding, graceful
// drain, and optional cluster cache peering (see package serve, package
// serve/cluster, serve/API.md and the README "Serving" / "Cluster
// serving" sections).
//
// Usage:
//
//	hfserve -addr :8080
//	hfserve -addr :8080 -workers 8 -queue 128 -cache-mb 256 -timeout 2m
//	hfserve -addr :0 -id r0 -peers r1=http://h1:8080,r2=http://h2:8080
//
// Endpoints (all under /v1/; full wire contract in serve/API.md):
//
//	POST /v1/run                {"bench":"wc","design":"SYNCOPTI"} -> metrics JSON
//	POST /v1/run?stream=ndjson  same spec -> NDJSON event stream: progress
//	                            heartbeats while the simulation runs
//	                            (?progress_every=N sets the cycle cadence),
//	                            then a metrics event whose body field holds
//	                            the exact non-streaming response bytes, then
//	                            done; failures arrive as typed error events.
//	                            Disconnecting cancels the simulation.
//	POST /v1/sweep              {"benches":["*"],"designs":["*"],"single":true}
//	                            -> NDJSON stream of per-cell metrics/error
//	                            events in completion order plus a closing
//	                            done event with run/hit/peer/coalesced
//	                            tallies. Cells share the /v1/run
//	                            result cache, so re-submitting a sweep only
//	                            simulates the misses.
//	GET  /v1/metrics            service counters (incl. peering when clustered)
//	GET  /v1/healthz            liveness (503 once draining)
//	GET  /v1/peer/{key}         cluster-internal cache tier: cached bytes for
//	                            a Spec.Key (404 not_cached; never simulates)
//	PUT  /v1/peer/{key}         cluster-internal: install a peer's result
//
// Clustering: give each replica an -id and the full -peers membership
// list (id=url pairs). On a local cache miss the replica asks the key's
// consistent-hash owner shard for the bytes before simulating, and
// publishes fresh results back to the owners; a dead or slow peer only
// ever degrades a request to local compute (see RESILIENCE.md).
//
// With -addr :0 the kernel picks the port; the resolved address is
// printed to stdout as "hfserve: listening on HOST:PORT" so scripts and
// tests can spin up ephemeral-port replicas without races.
//
// On SIGINT/SIGTERM the server stops accepting work (new /v1/run requests
// get a typed 503), finishes queued and in-flight simulations within the
// grace period, then exits 0; if the grace period expires first the
// remaining jobs are canceled and the exit status is 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hfstream/serve"
	"hfstream/serve/cluster"
)

// Connection budgets. A client that stalls in its headers or body, or
// idles on a keep-alive connection, is cut off; request bodies are small
// (and capped by MaxBytesReader), so seconds are generous. There is no
// write timeout: ?stream=ndjson and /v1/sweep responses live as long as
// their simulations, and the read deadline is lifted once the body is in.
// The API reads no header past a few short ones, so a header block over
// maxHeaderBytes (net/http's default is 1 MB) is answered 431.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// parsePeers decodes the -peers flag: comma-separated id=url pairs.
func parsePeers(raw string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, pair := range strings.Split(raw, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = url
	}
	return peers, nil
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (:0 picks an ephemeral port and prints it)")
		workers = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", serve.DefaultQueueDepth, "max jobs queued before shedding with 429")
		cacheMB = flag.Int64("cache-mb", serve.DefaultCacheBytes>>20, "result cache budget in MiB (negative disables)")
		timeout = flag.Duration("timeout", serve.DefaultJobTimeout, "per-job wall-clock budget")
		grace   = flag.Duration("grace", 30*time.Second, "drain budget after SIGTERM before in-flight jobs are canceled")

		id          = flag.String("id", "", "this replica's cluster id (required with -peers)")
		peersFlag   = flag.String("peers", "", "cluster membership as id=url,id=url (other replicas)")
		replication = flag.Int("replication", cluster.DefaultReplication, "owner shards per key for peer fill/store")
		peerTimeout = flag.Duration("peer-timeout", cluster.DefaultFillTimeout, "per-attempt peer cache fill budget")
	)
	flag.Parse()

	cacheBytes := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}

	var peering *cluster.Peering
	if *peersFlag != "" {
		if *id == "" {
			fmt.Fprintln(os.Stderr, "hfserve: -peers requires -id")
			os.Exit(2)
		}
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfserve:", err)
			os.Exit(2)
		}
		peering, err = cluster.New(cluster.Config{
			Self:        *id,
			Peers:       peers,
			Replication: *replication,
			FillTimeout: *peerTimeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfserve:", err)
			os.Exit(2)
		}
	}

	cfg := serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: cacheBytes,
		JobTimeout: *timeout,
	}
	if peering != nil {
		cfg.Peer = peering
	}
	s := serve.New(cfg)
	httpSrv := newHTTPServer(s.Handler())

	// Listen before serving so -addr :0 resolves to a concrete port we
	// can announce; tests and hfload parse this line to find the replica.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfserve:", err)
		os.Exit(1)
	}
	fmt.Printf("hfserve: listening on %s\n", ln.Addr())
	if peering != nil {
		fmt.Fprintf(os.Stderr, "hfserve: cluster replica %s, ring %v (replication %d)\n",
			*id, peering.Ring().IDs(), *replication)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "hfserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: reject new work first so load balancers see the
	// 503s, then wait out in-flight HTTP requests and queued jobs.
	fmt.Fprintln(os.Stderr, "hfserve: draining...")
	s.BeginDrain()
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	failed := false
	if err := httpSrv.Shutdown(graceCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hfserve: http shutdown:", err)
		failed = true
	}
	if err := s.Drain(graceCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hfserve: drain:", err)
		failed = true
	}
	if peering != nil {
		// Push any queued result publications out so the owners keep the
		// bytes this replica computed, then stop the store workers.
		if err := peering.Flush(graceCtx); err != nil {
			fmt.Fprintln(os.Stderr, "hfserve: peer store flush:", err)
		}
		peering.Close()
	}
	if failed {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "hfserve: drained cleanly")
}
