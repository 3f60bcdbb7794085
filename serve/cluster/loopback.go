package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"

	"hfstream/serve"
)

// Loopback is an n-replica hfserve cluster inside one process: real
// serve.Servers behind real HTTP listeners on 127.0.0.1, peered
// full-mesh. It is what the load harness, the service-tier chaos
// scenarios and the cluster differential drive when they need a cluster
// and not a deployment.
type Loopback struct {
	Replicas []*Replica
}

// Replica is one member of a Loopback.
type Replica struct {
	// ID is the replica's ring identity, "r<i>".
	ID string
	// URL is its base URL on loopback.
	URL    string
	Server *serve.Server
	// Peering is nil in a one-replica cluster, which has nobody to peer
	// with.
	Peering *Peering

	http *http.Server
}

// NewLoopback builds and starts n replicas on ephemeral ports. each, if
// non-nil, adjusts replica i's peering and server configuration before
// they are built (a faulted HTTPClient, a pool size); Self and Peers are
// already filled in and Peer is set afterwards. The listeners all open
// before any replica is built because every peering layer needs every
// URL, and a serve.Server needs its peering.
func NewLoopback(n int, each func(i int, pc *Config, sc *serve.Config)) (*Loopback, error) {
	listeners := make([]net.Listener, n)
	urls := make(map[string]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		urls[fmt.Sprintf("r%d", i)] = "http://" + ln.Addr().String()
	}
	l := &Loopback{}
	for i, ln := range listeners {
		id := fmt.Sprintf("r%d", i)
		r := &Replica{ID: id, URL: urls[id]}
		pc := Config{Self: id, Peers: urls}
		var sc serve.Config
		if each != nil {
			each(i, &pc, &sc)
		}
		if n > 1 {
			if pc.HTTPClient == nil {
				// A pool of this replica's own, so Close can empty it.
				pc.HTTPClient = &http.Client{Transport: &http.Transport{}}
			}
			p, err := New(pc)
			if err != nil {
				for _, unserved := range listeners[i:] {
					unserved.Close()
				}
				l.Close(context.Background())
				return nil, err
			}
			r.Peering, sc.Peer = p, p
		}
		r.Server = serve.New(sc)
		r.http = &http.Server{Handler: r.Server.Handler()}
		go r.http.Serve(ln) // returns when Close shuts the server down
		l.Replicas = append(l.Replicas, r)
	}
	return l, nil
}

// Close tears the cluster down, bounded by ctx. Every replica's peer
// client drops its idle connections before any server shuts down: a
// pooled connection that never carried a request is StateNew on the
// server side, and http.Server.Shutdown waits five seconds on those
// before it treats them as idle. Callers do the same with their own
// driving clients first. Then, per replica: stop accepting, finish the
// jobs in flight, stop the store workers.
func (l *Loopback) Close(ctx context.Context) error {
	for _, r := range l.Replicas {
		if r.Peering != nil {
			r.Peering.cfg.HTTPClient.CloseIdleConnections()
		}
	}
	var errs []error
	for _, r := range l.Replicas {
		errs = append(errs, r.http.Shutdown(ctx), r.Server.Drain(ctx))
		if r.Peering != nil {
			r.Peering.Close()
		}
	}
	return errors.Join(errs...)
}
