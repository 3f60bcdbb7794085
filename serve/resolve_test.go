package serve

// The request surface this package answers on, and the one path behind
// it: /v1 alone, "stages" no field of any body, and the blocking run, the
// NDJSON stream and every sweep cell resolved by the same function with
// the same labels and the same counters.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hfstream"
)

// TestServesV1Only: the unversioned paths are gone, for every method;
// the mux's own 404 answers them and nothing is counted as a request.
func TestServesV1Only(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/run", "/sweep", "/metrics", "/healthz"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			status, _, _ := doReq(t, method, ts.URL+path, `{"bench":"wc","design":"HEAVYWT"}`)
			if status != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, status)
			}
		}
		if status, _, _ := doReq(t, http.MethodGet, ts.URL+"/v1"+path, ""); status == http.StatusNotFound {
			t.Errorf("GET /v1%s: 404, want the endpoint", path)
		}
	}
	if m := s.Metrics(); m.Requests != 0 || m.Runs != 0 {
		t.Fatalf("requests=%d runs=%d after only unversioned and GET traffic, want 0/0", m.Requests, m.Runs)
	}
}

// TestServeRejectsStagesField: a core count is spelled by the design name
// and nowhere else, so a body that still carries "stages" is told so by
// name on all three endpoints, and costs no lookup and no run.
func TestServeRejectsStagesField(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const spec = `{"bench":"fft2","design":"HEAVYWT","stages":3}`
	for _, ep := range []struct{ path, body string }{
		{"/v1/run", spec},
		{"/v1/run?stream=ndjson", spec},
		{"/v1/sweep", `{"benches":["fft2"],"designs":["HEAVYWT"],"stages":[3]}`},
	} {
		status, body, _ := doReq(t, http.MethodPost, ts.URL+ep.path, ep.body)
		if status != http.StatusBadRequest || errCode(t, body) != codeBadRequest {
			t.Errorf("%s: status=%d body=%s, want the typed 400", ep.path, status, body)
		}
		if !strings.Contains(string(body), `\"stages\"`) {
			t.Errorf("%s: error %s does not name the field", ep.path, body)
		}
	}
	if m := s.Metrics(); m.Runs != 0 || m.CacheMisses != 0 || m.CacheHits != 0 {
		t.Fatalf("runs=%d cache_misses=%d cache_hits=%d after rejected bodies, want 0/0/0", m.Runs, m.CacheMisses, m.CacheHits)
	}
}

// provenanceCounters are the counters resolve and runOne decide; the
// test reads them as deltas around one request.
type provenanceCounters struct {
	Runs, CacheHits, CacheMisses, Coalesced, PeerHits, PeerMisses uint64
}

func countersOf(s *Server) provenanceCounters {
	m := s.Metrics()
	return provenanceCounters{m.Runs, m.CacheHits, m.CacheMisses, m.Coalesced, m.PeerHits, m.PeerMisses}
}

func (c provenanceCounters) minus(b provenanceCounters) provenanceCounters {
	return provenanceCounters{c.Runs - b.Runs, c.CacheHits - b.CacheHits, c.CacheMisses - b.CacheMisses,
		c.Coalesced - b.Coalesced, c.PeerHits - b.PeerHits, c.PeerMisses - b.PeerMisses}
}

// ask sends one spec to an endpoint and returns the served body and its
// provenance label, read from wherever that endpoint reports them.
type ask func(url string, spec hfstream.Spec) (body, cache string, err error)

func askRun(url string, spec hfstream.Spec) (string, string, error) {
	buf, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, body.String())
	}
	return body.String(), resp.Header.Get("X-Hfserve-Cache"), nil
}

// askEvents posts to a streaming endpoint and returns its one metrics
// event's body and label.
func askEvents(url, path string, reqBody []byte) (string, string, error) {
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return "", "", fmt.Errorf("%s: no metrics event: %v", path, err)
		}
		if ev.Type == eventMetrics {
			return ev.Body, ev.Cache, nil
		}
	}
}

func askStream(url string, spec hfstream.Spec) (string, string, error) {
	buf, _ := json.Marshal(spec)
	return askEvents(url, "/v1/run?stream=ndjson", buf)
}

func askSweep(url string, spec hfstream.Spec) (string, string, error) {
	buf, _ := json.Marshal(SweepRequest{Benches: []string{spec.Bench}, Designs: []string{spec.Design}})
	return askEvents(url, "/v1/sweep", buf)
}

// flightJoiners counts the goroutines inside flightGroup.do that are not
// leading a run. A joiner moves no counter and writes nothing until its
// flight ends, so its stack is the only sign that a request has joined a
// held flight rather than being about to; once it is in do and the
// flight is held, join is all it can do.
func flightJoiners() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*flightGroup).do(") && !strings.Contains(g, "(*Server).runOne(") {
			n++
		}
	}
	return n
}

// TestServeEndpointsShareOneResolve is the property that licenses one resolve:
// driven through miss, hit, peer and coalesced, the blocking run, the
// NDJSON stream and a sweep cell serve the same bytes under the same
// label and move the same counters by the same amounts.
func TestServeEndpointsShareOneResolve(t *testing.T) {
	bodyOf := func(spec hfstream.Spec) string { return fmt.Sprintf("{\"ran\":%q}\n", spec.Bench+"/"+spec.Design) }
	const peerBody = "{\"from\":\"peer\"}\n"
	peerSpec := hfstream.Spec{Bench: "wc", Design: "MEMOPTI"}
	peerKey, err := peerSpec.Key()
	if err != nil {
		t.Fatal(err)
	}

	for _, ep := range []struct {
		name string
		ask  ask
	}{{"run", askRun}, {"stream", askStream}, {"sweep", askSweep}} {
		peer := newFakePeer()
		peer.fill[peerKey] = []byte(peerBody)
		s := New(Config{Workers: 2, Peer: peer})
		// The run seam answers from the spec alone, after waiting on the
		// spec's gate when it has one: a held flight is what a second
		// request coalesces onto.
		var gateMu sync.Mutex
		gates := map[hfstream.Spec]chan struct{}{}
		s.run = func(ctx context.Context, spec hfstream.Spec, hooks *streamHooks) *outcome {
			s.runs.Add(1)
			gateMu.Lock()
			gate := gates[spec]
			gateMu.Unlock()
			if gate != nil {
				<-gate
			}
			return &outcome{status: http.StatusOK, body: []byte(bodyOf(spec)), source: "miss", ok: true}
		}
		ts := httptest.NewServer(s.Handler())

		expect := func(step string, spec hfstream.Spec, wantBody, wantCache string, want provenanceCounters) {
			t.Helper()
			before := countersOf(s)
			body, cache, err := ep.ask(ts.URL, spec)
			if err != nil {
				t.Fatalf("%s, %s: %v", ep.name, step, err)
			}
			if body != wantBody || cache != wantCache {
				t.Errorf("%s, %s: served %q as %q, want %q as %q", ep.name, step, body, cache, wantBody, wantCache)
			}
			if got := countersOf(s).minus(before); got != want {
				t.Errorf("%s, %s: counters moved by %+v, want %+v", ep.name, step, got, want)
			}
		}
		spec := hfstream.Spec{Bench: "wc", Design: "HEAVYWT"}
		expect("miss", spec, bodyOf(spec), "miss", provenanceCounters{Runs: 1, CacheMisses: 1, PeerMisses: 1})
		expect("hit", spec, bodyOf(spec), "hit", provenanceCounters{CacheHits: 1})
		expect("peer", peerSpec, peerBody, "peer", provenanceCounters{CacheMisses: 1, PeerHits: 1})
		expect("hit after peer", peerSpec, peerBody, "hit", provenanceCounters{CacheHits: 1})

		// Coalesced: a leader is held in its run while a second request
		// for the same key joins its flight; only then does the gate open.
		held := hfstream.Spec{Bench: "fir", Design: "HEAVYWT"}
		gate := make(chan struct{})
		gateMu.Lock()
		gates[held] = gate
		gateMu.Unlock()
		before := countersOf(s)
		leader := make(chan error, 1)
		go func() {
			_, cache, err := ep.ask(ts.URL, held)
			if err == nil && cache != "miss" {
				err = fmt.Errorf("leader served as %q, want miss", cache)
			}
			leader <- err
		}()
		waitFor(t, func() bool { return s.runs.Load() == before.Runs+1 })
		joiner := make(chan error, 1)
		go func() {
			body, cache, err := ep.ask(ts.URL, held)
			if err == nil && (body != bodyOf(held) || cache != "coalesced") {
				err = fmt.Errorf("joiner served %q as %q, want the leader's %q as \"coalesced\"", body, cache, bodyOf(held))
			}
			joiner <- err
		}()
		waitFor(t, func() bool { return flightJoiners() == 1 })
		close(gate)
		if err := <-leader; err != nil {
			t.Errorf("%s, coalesced: %v", ep.name, err)
		}
		if err := <-joiner; err != nil {
			t.Errorf("%s, coalesced: %v", ep.name, err)
		}
		want := provenanceCounters{Runs: 1, CacheMisses: 1, PeerMisses: 1, Coalesced: 1}
		if got := countersOf(s).minus(before); got != want {
			t.Errorf("%s, leader and joiner: counters moved by %+v, want %+v", ep.name, got, want)
		}
		ts.Close()
	}
}
