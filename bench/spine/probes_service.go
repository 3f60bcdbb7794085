package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
)

// loopbackProbe reports what the in-process transport leaves out: the
// median hot op over a real loopback socket. Compare with serve.hit_yt
// plus client.overhead_yt. A sandbox without sockets leaves it 0.
func loopbackProbe(ctx context.Context, rc runConfig, yt *ytClock, res *runResult) error {
	srv := newServer(nil)
	defer drain(srv)
	var ts *httptest.Server
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.note("serve.http_loopback_rtt_yt left 0: no loopback listener here (%v)", r)
			}
		}()
		ts = httptest.NewServer(srv.Handler())
	}()
	if ts == nil {
		return nil
	}
	defer ts.Close()
	cl := client.New(ts.URL)
	spec := hfstream.Spec{Bench: "wc", Design: "HEAVYWT"}
	want, err := cl.Run(ctx, spec)
	if err != nil {
		return err
	}
	n := 600
	if rc.Short {
		n = 50
	}
	var rtt []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r, err := cl.Run(ctx, spec)
		d := float64(time.Since(t0))
		if err != nil {
			return err
		}
		if r.Cache != "hit" || !bytes.Equal(r.Body, want.Body) {
			return fmt.Errorf("loopback op %d: provenance %q or body differs", i, r.Cache)
		}
		rtt = append(rtt, d/yt.observe(d))
	}
	res.Layers["serve.http_loopback_rtt_yt"] = median(rtt)
	return nil
}

// sweepProbes are the service paths no timed op takes: a /v1/sweep of the
// matrix on a cold server, the same sweep again on the now warm one, and
// two clients asking for the same cold key at once.
func sweepProbes(ctx context.Context, rc runConfig, yt *ytClock, res *runResult) error {
	cells := matrixCells()
	want := make(map[string][]byte)
	bodies, _, _, err := references(ctx, cells, yt, newModelSum())
	if err != nil {
		return err
	}
	for i, c := range cells {
		k, err := c.Spec.Key()
		if err != nil {
			return err
		}
		want[k] = bodies[i]
	}

	srv := newServer(nil)
	hosts := map[string]http.Handler{"sweep": srv.Handler()}
	cl := client.New("http://sweep", client.WithHTTPClient(&http.Client{Transport: &inproc{hosts: hosts}}))
	for _, name := range []string{"serve.sweep_cell_yt", "serve.resweep_cell_yt"} {
		t0 := time.Now()
		st, err := cl.Sweep(ctx, serve.SweepRequest{Benches: []string{"*"}, Designs: []string{"*"}})
		if err != nil {
			return err
		}
		events, err := st.All()
		st.Close()
		d := float64(time.Since(t0))
		if err != nil {
			return err
		}
		got := 0
		for _, ev := range events {
			if ev.Type != "metrics" {
				continue
			}
			if !bytes.Equal([]byte(ev.Body), want[ev.Key]) {
				return fmt.Errorf("%s: cell %s differs from the direct Spec.RunCtx bytes", name, ev.Key)
			}
			got++
		}
		if got != len(cells) {
			return fmt.Errorf("%s: %d of %d cells came back", name, got, len(cells))
		}
		res.Layers[name] = d / yt.observe(d) / float64(len(cells))
	}
	if err := drain(srv); err != nil {
		return err
	}

	// Coalescing: the timed workloads give every key to one client, so no
	// request ever joins another. Here both clients ask together.
	srv = newServer(nil)
	defer drain(srv)
	hosts = map[string]http.Handler{"join": srv.Handler()}
	if rc.Short {
		cells = cells[:7]
	}
	var joined []float64
	for _, c := range cells {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		start := make(chan struct{})
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := client.New("http://join", client.WithHTTPClient(&http.Client{Transport: &inproc{hosts: hosts}}))
				<-start
				t0 := time.Now()
				r, err := cl.Run(ctx, c.Spec)
				d := float64(time.Since(t0))
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					firstErr = err
					return
				}
				if r.Cache == "coalesced" {
					joined = append(joined, d/yt.est)
				}
			}()
		}
		close(start)
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	res.Layers["serve.coalesced_yt"] = median(joined)
	res.note("serve.coalesced_yt: %d of %d simultaneous pairs coalesced", len(joined), len(cells))
	return nil
}
