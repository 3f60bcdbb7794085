package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
	"hfstream/serve/faultnet"
)

// TestLoopbackCloseIsPrompt: three replicas whose peer clients go through
// a fault transport, a peer fill on each, and then the connection that
// used to cost a teardown five seconds — one that sits in a peer client's
// pool without ever having carried a request. net/http makes those when a
// request that started a dial is handed an older connection first; the
// server sees StateNew, and http.Server.Shutdown waits 5s on StateNew
// before calling it idle. Close must get rid of it first, which takes
// both halves of the fix: the faulted client forwards
// CloseIdleConnections, and Close calls it before any Shutdown.
func TestLoopbackCloseIsPrompt(t *testing.T) {
	// Replica 0's peer client dials through a gate the test can hold.
	var hold atomic.Bool
	dialing, release, dialed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var peer0 *http.Client
	lb, err := NewLoopback(3, func(i int, pc *Config, sc *serve.Config) {
		sc.Workers = 1
		tr := &http.Transport{}
		if i == 0 {
			tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
				if !hold.Load() {
					return (&net.Dialer{}).DialContext(ctx, network, addr)
				}
				close(dialing)
				<-release
				defer close(dialed)
				return (&net.Dialer{}).DialContext(context.Background(), network, addr)
			}
		}
		plan := faultnet.Plan{Events: []faultnet.Event{{Kind: faultnet.Delay, Nth: 1, DelayMs: 1}}}
		pc.HTTPClient = faultnet.NewTransport(plan, tr).Client()
		if i == 0 {
			peer0 = pc.HTTPClient
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	closeWithin := func(limit time.Duration) {
		t.Helper()
		if closed {
			return
		}
		closed = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		start := time.Now()
		if err := lb.Close(ctx); err != nil {
			t.Error(err)
		}
		if d := time.Since(start); d > limit {
			t.Errorf("Close took %v, want under %v", d.Round(time.Millisecond), limit)
		}
	}
	defer closeWithin(10 * time.Second)

	// One peer fill per replica: a key it does not own, simulated at the
	// key's primary owner first.
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	filled := map[int]bool{}
	for _, d := range hfstream.Designs() {
		spec := hfstream.Spec{Bench: "bzip2", Design: d.Name()}
		owners := lb.Replicas[0].Peering.Owners(specKey(t, spec))
		primary, nonOwner := -1, -1
		for i, r := range lb.Replicas {
			switch r.ID {
			case owners[0]:
				primary = i
			case owners[1]:
			default:
				nonOwner = i
			}
		}
		if filled[nonOwner] {
			continue
		}
		filled[nonOwner] = true
		mustRun(t, client.New(lb.Replicas[primary].URL, client.WithHTTPClient(hc)), spec)
		if got := mustRun(t, client.New(lb.Replicas[nonOwner].URL, client.WithHTTPClient(hc)), spec); got.Cache != "peer" {
			t.Fatalf("%s on %s: cache=%q, want a peer fill", d.Name(), lb.Replicas[nonOwner].ID, got.Cache)
		}
	}
	for i, r := range lb.Replicas {
		if hits := r.Server.Metrics().Peer.Hits; hits == 0 {
			t.Fatalf("replica %d filled nothing from its peers (seven designs gave non-owners %v)", i, filled)
		}
	}

	// The never-used pooled connection, made on purpose. With replica 0's
	// pool empty, request b dials connection 1 and keeps it checked out by
	// not reading its body; request c finds no idle connection and starts
	// dial 2, which the gate holds; b's body is read, connection 1 goes
	// idle and is handed to c; dial 2 is let through, finds nobody waiting,
	// and is pooled.
	peer0.CloseIdleConnections()
	url := lb.Replicas[1].URL + "/v1/healthz"
	b, err := peer0.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	cDone := make(chan error, 1)
	go func() {
		resp, err := peer0.Get(url)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cDone <- err
	}()
	<-dialing
	io.Copy(io.Discard, b.Body)
	b.Body.Close()
	if err := <-cDone; err != nil {
		t.Fatal(err)
	}
	close(release)
	<-dialed
	// The transport pools the connection a few statements after the dial
	// returns; nothing observable marks the moment.
	time.Sleep(100 * time.Millisecond)

	closeWithin(2 * time.Second)
}
