package serve_test

// The cache-hit path, priced and pinned: what a hit allocates on the
// server alone and with the typed client reading it, the benchmark that
// reports both, and the length every unary reply declares. The package is
// external because the client half imports serve/client, which imports
// serve.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
)

// hitSpec is the spec the tests here read back from the cache, and hitBody
// its request body.
var hitSpec = hfstream.Spec{Bench: "fft2", Design: "SYNCOPTI_SC+Q64"}

const hitBody = `{"bench":"fft2","design":"SYNCOPTI_SC+Q64"}`

// inproc is an http.RoundTripper that hands each request straight to a
// handler, so the client is measured without a socket in the way.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// hotServer returns a server whose cache holds hitSpec's metrics body,
// put there by one real simulation, with its handler and that body.
func hotServer(tb testing.TB) (*serve.Server, http.Handler, []byte) {
	tb.Helper()
	s := serve.New(serve.Config{Workers: 1})
	h := s.Handler()
	res, err := client.New("http://hot", client.WithHTTPClient(&http.Client{Transport: inproc{h}})).
		Run(context.Background(), hitSpec)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Cache != "miss" {
		tb.Fatalf("warm-up run answered %q, want miss", res.Cache)
	}
	return s, h, res.Body
}

// discardWriter is a ResponseWriter that keeps nothing, so what is left to
// count is the handler's own work.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// serveDiscarded sends one request straight to h and drops the reply.
func serveDiscarded(h http.Handler, path, body string) {
	h.ServeHTTP(&discardWriter{h: http.Header{}}, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
}

func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("the race detector's instrumentation allocates; the counts are pinned without it")
			}
		}
	}
}

// TestRunHitAllocationCeiling: a repeated /v1/run body is read into a
// pooled buffer and found in the server's spec memo, so a cache hit decodes
// no JSON and derives no key: what it still pays for is the request itself,
// which this count includes, and the reply's two header values that vary.
// The ceiling fails as soon as a hit decodes again (26 before the memo) or
// builds the benchmark it names (fft2: 78 allocations).
//
// The stream and the sweep cell take the same resolve, and the benchmark's
// hot workload takes neither, so each has a ceiling of its own. A streamed
// hit that starts paying for the progress buffer, its goroutine or a
// joined context — all of which wait for a simulation that is really about
// to run — goes over. A sweep decodes its grid and keys its cells on every
// request. Each ceiling is the count measured when it was set.
func TestRunHitAllocationCeiling(t *testing.T) {
	skipUnderRace(t)
	s, h, _ := hotServer(t)
	warm := s.Metrics()
	for _, c := range []struct {
		name, path, body string
		ceiling          float64
	}{
		{"/v1/run", "/v1/run", hitBody, 16},
		{"streamed", "/v1/run?stream=ndjson", hitBody, 25},
		{"one-cell /v1/sweep", "/v1/sweep", `{"benches":["fft2"],"designs":["SYNCOPTI_SC+Q64"]}`, 40},
	} {
		got := testing.AllocsPerRun(20, func() { serveDiscarded(h, c.path, c.body) })
		if got > c.ceiling {
			t.Errorf("a %s cache hit made %.0f allocations, want at most %.0f", c.name, got, c.ceiling)
		}
	}
	if m := s.Metrics(); m.Runs != warm.Runs || m.CacheMisses != warm.CacheMisses || m.CacheHits == warm.CacheHits {
		t.Fatalf("runs %d -> %d, cache misses %d -> %d, hits %d -> %d: want only hits",
			warm.Runs, m.Runs, warm.CacheMisses, m.CacheMisses, warm.CacheHits, m.CacheHits)
	}
}

// TestClientRunHitAllocationCeiling: client.Run on a hit, through a
// transport that calls the handler, is the server's hit plus marshaling
// the spec, building the request, recording the reply and reading its body
// into one buffer of the declared length (43 before the server's spec
// memo). A reply read that grows its buffer, or a header that stops being
// shared, goes over.
func TestClientRunHitAllocationCeiling(t *testing.T) {
	skipUnderRace(t)
	_, h, body := hotServer(t)
	cl := client.New("http://hot", client.WithHTTPClient(&http.Client{Transport: inproc{h}}))
	ctx := context.Background()
	const ceiling = 33
	got := testing.AllocsPerRun(20, func() {
		res, err := cl.Run(ctx, hitSpec)
		if err != nil || res.Cache != "hit" || len(res.Body) != len(body) {
			t.Fatalf("hit: %+v, %v", res, err)
		}
	})
	if got > ceiling {
		t.Errorf("client.Run on a cache hit made %.0f allocations, want at most %d", got, ceiling)
	}
}

// TestUnaryRepliesDeclareTheirLength: every reply that is one body — a
// hit, an error envelope, a peer GET and its miss, the counters, the
// health check — declares its exact length, and the NDJSON streams do not,
// because they are written as their events happen.
func TestUnaryRepliesDeclareTheirLength(t *testing.T) {
	_, h, body := hotServer(t)
	key, err := hitSpec.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, method, path, body string
		status                   int
		unary                    bool
	}{
		{"run hit", http.MethodPost, "/v1/run", hitBody, http.StatusOK, true},
		{"error envelope", http.MethodPost, "/v1/run", `{"bench":"nope"}`, http.StatusBadRequest, true},
		{"peer GET", http.MethodGet, "/v1/peer/" + key, "", http.StatusOK, true},
		{"peer GET miss", http.MethodGet, "/v1/peer/" + strings.Repeat("ab", 32), "", http.StatusNotFound, true},
		{"metrics", http.MethodGet, "/v1/metrics", "", http.StatusOK, true},
		{"healthz", http.MethodGet, "/v1/healthz", "", http.StatusOK, true},
		{"stream", http.MethodPost, "/v1/run?stream=ndjson", hitBody, http.StatusOK, false},
		{"sweep", http.MethodPost, "/v1/sweep", `{"benches":["fft2"],"designs":["SYNCOPTI_SC+Q64"]}`, http.StatusOK, false},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body)
			continue
		}
		cl, declared := rec.Header()["Content-Length"]
		switch {
		case c.unary && (!declared || cl[0] != strconv.Itoa(rec.Body.Len())):
			t.Errorf("%s: Content-Length %q for a %d-byte body", c.name, cl, rec.Body.Len())
		case !c.unary && declared:
			t.Errorf("%s: a stream declared Content-Length %q", c.name, cl)
		}
		if c.name == "run hit" && rec.Body.String() != string(body) {
			t.Errorf("run hit: body differs from the warm-up run's")
		}
	}
}

// BenchmarkRunHit prices a /v1/run cache hit: "server" is the handler
// alone writing into a discarding ResponseWriter, "client" is client.Run
// through a transport that calls the handler, which is serve_hot's op
// without the benchmark's spans. Every iteration sends the same body, so
// the server answers it from its spec memo, as serve_hot's server does.
func BenchmarkRunHit(b *testing.B) {
	_, h, _ := hotServer(b)
	b.Run("server", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveDiscarded(h, "/v1/run", hitBody)
		}
	})
	b.Run("client", func(b *testing.B) {
		cl := client.New("http://hot", client.WithHTTPClient(&http.Client{Transport: inproc{h}}))
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Run(ctx, hitSpec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
