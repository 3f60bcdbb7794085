package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hfstream"
)

// echoServer returns a server with no result cache whose runs answer with
// the spec they were handed, so every request reaches the run and each
// answer shows exactly what the handler decoded.
func echoServer() *Server {
	s := New(Config{Workers: 2, CacheBytes: -1})
	s.run = func(_ context.Context, spec hfstream.Spec, _ *streamHooks) *outcome {
		return &outcome{status: http.StatusOK, body: fmt.Appendf(nil, "%#v\n", spec), source: "miss", ok: true}
	}
	return s
}

// reply is what a client can see of one answer.
type reply struct {
	status           int
	body, key, cache string
}

// answer sends one POST straight to h.
func answer(h http.Handler, path, body string) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return reply{rec.Code, rec.Body.String(), rec.Header().Get("X-Hfserve-Key"), rec.Header().Get("X-Hfserve-Cache")}
}

// pad appends spaces to body until it is n bytes long.
func pad(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }

// concurrently hands the groups to fn from 8 goroutines and waits for
// them. A group's bodies go to fn one after another, so bodies that key
// the same are grouped to keep them from coalescing onto one flight.
func concurrently(groups [][]string, fn func(body string)) {
	work := make(chan []string)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				for _, b := range g {
					fn(b)
				}
			}
		}()
	}
	for _, g := range groups {
		work <- g
	}
	close(work)
	wg.Wait()
}

// apart puts each body in a group of its own.
func apart(bodies []string) [][]string {
	groups := make([][]string, len(bodies))
	for i, b := range bodies {
		groups[i] = []string{b}
	}
	return groups
}

// memoBodies returns the bodies a server's spec memo holds.
func memoBodies(s *Server) []string {
	s.memoMu.RLock()
	defer s.memoMu.RUnlock()
	var out []string
	for b := range s.memo {
		out = append(out, b)
	}
	return out
}

// TestSpecMemoIsInvisible: a /v1/run body answered from the spec memo gets
// the answer a decode would give it. Each body goes twice to one server,
// whose second answer may come from its memo, and once to a second server
// that sees every body exactly once, so each of its answers is decoded
// afresh; all three must agree in status, body, key and provenance. Bodies
// the server rejects are never remembered, and the memo keeps to its
// bounds however many distinct bodies arrive.
func TestSpecMemoIsInvisible(t *testing.T) {
	twice, fresh := echoServer(), echoServer()
	th, fh := twice.Handler(), fresh.Handler()
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	check := func(body string) reply {
		a, b, c := answer(th, "/v1/run", body), answer(th, "/v1/run", body), answer(fh, "/v1/run", body)
		if a != b || a != c {
			fail("body %q answered\n%+v\nthen\n%+v\nand afresh\n%+v", body, a, b, c)
		}
		return a
	}

	// Rejected bodies: FuzzDecodeBody's seeds, and names that do not resolve.
	rejected := []string{
		`{"bench":"wc","design":"HEAVYWT"} trailing garbage`,
		`{"bench":"wc","design":"HEAVYWT"}{"bench":"nope"}`,
		`{"bench":"wc","design":"HEAVYWT","turbo":true}`,
		`{"bench":"fft2","design":"HEAVYWT","stages":3}`,
		`{"bench":"nope","design":"HEAVYWT"}`,
		`{"bench":"wc","design":"nope"}`,
		`{"bench":"wc","design":"HEAVYWT_2CORE"}`,
		`{"bench":"wc","design":"HEAVYWT","single":true}`,
		`{"bench":1}`, `{`, ``,
	}
	concurrently(apart(rejected), func(body string) {
		if r := check(body); r.status != http.StatusBadRequest || r.key != "" {
			fail("body %q: %+v, want a 400 with no key", body, r)
		}
	})
	if m := memoBodies(twice); len(m) != 0 {
		t.Fatalf("rejected bodies were remembered: %q", m)
	}

	// Accepted bodies: every benchmark on every design name and single, the
	// aliases that normalize to another name, and other spellings of the
	// same object.
	designs := []string{"REGMAPPED", "HEAVYWT_CENTRAL", "MPMC", "MPMC_Q64", "NETQUEUE_2hop",
		"HEAVYWT_03CORE", "MPMC_4CORE", "NETQUEUE_02hop"}
	for _, d := range hfstream.Designs() {
		designs = append(designs, d.Name())
		for k := 3; k <= 8; k++ {
			designs = append(designs, fmt.Sprintf("%s_%dCORE", d.Name(), k))
		}
	}
	var accepted [][]string // one group per benchmark
	n := 0
	for _, b := range hfstream.Benchmarks() {
		g := []string{
			fmt.Sprintf(`{"bench":%q,"single":true}`, b.Name()),
			fmt.Sprintf(`{"single":true,"bench":%q,"design":""}`, b.Name()),
		}
		for _, d := range designs {
			g = append(g, fmt.Sprintf(`{"bench":%q,"design":%q}`, b.Name(), d),
				fmt.Sprintf(" {\n\t\"design\" : %q, \"single\":false,\"bench\":%q }\r\n", d, b.Name()))
		}
		accepted = append(accepted, g)
		n += len(g)
	}
	wantOK := func(body string, r reply) {
		var spec hfstream.Spec
		if err := decodeBody([]byte(body), &spec); err != nil {
			fail("test bug: %q: %v", body, err)
			return
		}
		key, err := spec.Key()
		if want := (reply{http.StatusOK, fmt.Sprintf("%#v\n", spec), key, "miss"}); err != nil || r != want {
			fail("body %q: %+v, want %+v (%v)", body, r, want, err)
		}
	}
	concurrently(accepted, func(body string) { wantOK(body, check(body)) })
	if got := len(memoBodies(twice)); got != n {
		t.Errorf("memo holds %d bodies after %d distinct accepted ones", got, n)
	}

	// Bounds: more distinct bodies than the memo keeps, and one too long
	// to keep, are all answered as a decode answers them.
	var many []string
	for h := 100; h < 100+memoEntries+4; h++ { // hop counts no body above uses
		many = append(many, fmt.Sprintf(`{"bench":"wc","design":"NETQUEUE_%dhop"}`, h))
	}
	many = append(many, pad(`{"bench":"wc","design":"HEAVYWT"}`, 300))
	concurrently(apart(many), func(body string) { wantOK(body, check(body)) })
	m := memoBodies(twice)
	if len(m) != memoEntries {
		t.Errorf("memo holds %d bodies, want its cap %d", len(m), memoEntries)
	}
	for _, b := range m {
		if len(b) > memoBodyBytes {
			t.Errorf("memo holds a %d-byte body, cap %d", len(b), memoBodyBytes)
		}
	}
}

// TestRequestSizeCap: a request body is read up to maxRequestBytes, whether
// the request declares its length or not (as a chunked upload does not).
// One byte more is a typed 400 that says so before any of the body is
// parsed, even when its first byte is already malformed; a valid body
// padded with whitespace to exactly the cap is accepted.
func TestRequestSizeCap(t *testing.T) {
	h := echoServer().Handler()
	send := func(path, body string, declared bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/run", `{"bench":"wc","design":"HEAVYWT"}`},
		{"/v1/run?stream=ndjson", `{"bench":"wc","design":"HEAVYWT"}`},
		{"/v1/sweep", `{"benches":["wc"],"designs":["HEAVYWT"]}`},
	} {
		for _, declared := range []bool{true, false} {
			if rec := send(c.path, pad(c.body, maxRequestBytes), declared); rec.Code != http.StatusOK {
				t.Errorf("%s, length declared %v: a body of exactly %d bytes answered %d %s",
					c.path, declared, maxRequestBytes, rec.Code, rec.Body)
			}
			for _, over := range []string{pad(c.body, maxRequestBytes+1), pad("x", maxRequestBytes+1)} {
				rec := send(c.path, over, declared)
				if rec.Code != http.StatusBadRequest || errCode(t, rec.Body.Bytes()) != codeBadRequest ||
					!strings.Contains(rec.Body.String(), "too large") {
					t.Errorf("%s, length declared %v: a %d-byte body starting %q answered %d %s, want a typed 400 saying too large",
						c.path, declared, len(over), over[:1], rec.Code, rec.Body)
				}
			}
		}
	}
}
