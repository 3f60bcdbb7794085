package serve

// Streaming battery: the NDJSON /v1/run mode and the /v1/sweep grid endpoint.
// These run under -race via `make race` (the whole serve package does)
// and under both fast-forward modes via `make serve-diff` /
// `make serve-diff-noff` — the stream bodies are part of the
// byte-equivalence contract the differential battery pins at the root.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hfstream"
)

// readStream posts a body to path and decodes every NDJSON line,
// asserting the content type and strictly monotone sequence numbers.
func readStream(t *testing.T, url, path, body string) []StreamEvent {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d (%s)", path, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("%s: content type %q, want %q", path, ct, ndjsonContentType)
	}
	return decodeEvents(t, resp.Body)
}

func decodeEvents(t *testing.T, r io.Reader) []StreamEvent {
	t.Helper()
	var events []StreamEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("non-event stream line %q: %v", sc.Text(), err)
		}
		if want := uint64(len(events)); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want strictly monotone from 0", len(events), ev.Seq)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// terminal splits a stream into (progress..., result, done?) and
// returns the result event (metrics or error) plus whether a done
// event closed the stream.
func terminal(t *testing.T, events []StreamEvent) (StreamEvent, bool) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last.Type == eventDone {
		if len(events) < 2 {
			t.Fatal("done event with no result event before it")
		}
		return events[len(events)-2], true
	}
	return last, false
}

func TestStreamRunEmitsTypedEvents(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := hfstream.Spec{Bench: "adpcmdec", Design: "SYNCOPTI"}
	var direct bytes.Buffer
	if _, err := spec.RunCtx(context.Background(), hfstream.WithMetrics(&direct)); err != nil {
		t.Fatal(err)
	}

	// Cold: a tight progress cadence must yield at least one heartbeat
	// before the metrics event, and the body must be the exact
	// non-streaming bytes.
	events := readStream(t, ts.URL, "/v1/run?stream=ndjson&progress_every=100", `{"bench":"adpcmdec","design":"SYNCOPTI"}`)
	res, done := terminal(t, events)
	if !done {
		t.Fatalf("cold stream did not close with a done event: %+v", events[len(events)-1])
	}
	if res.Type != eventMetrics || res.Cache != "miss" || res.Status != 200 {
		t.Fatalf("cold result event = %+v, want metrics/miss/200", res)
	}
	if res.Body != direct.String() {
		t.Fatalf("cold stream body differs from direct API bytes:\n%q\nvs\n%q", res.Body, direct.String())
	}
	progress := 0
	for _, ev := range events[:len(events)-2] {
		if ev.Type != eventProgress {
			t.Fatalf("pre-result event of type %q, want only progress", ev.Type)
		}
		progress++
	}
	if progress == 0 {
		t.Fatal("no progress events at a 100-cycle cadence")
	}
	for i := 1; i < progress; i++ {
		if events[i].Cycle <= events[i-1].Cycle {
			t.Fatalf("progress cycles not increasing: %d then %d", events[i-1].Cycle, events[i].Cycle)
		}
	}

	// Hot: served straight from the cache — no progress, same bytes.
	events = readStream(t, ts.URL, "/v1/run?stream=ndjson", `{"bench":"adpcmdec","design":"SYNCOPTI"}`)
	if len(events) != 2 {
		t.Fatalf("cached stream has %d events, want metrics+done", len(events))
	}
	if events[0].Type != eventMetrics || events[0].Cache != "hit" || events[0].Body != direct.String() {
		t.Fatalf("cached stream result = %+v, want hit with identical body", events[0])
	}
	if m := s.Metrics(); m.Runs != 1 || m.Streams != 2 {
		t.Fatalf("runs=%d streams=%d, want 1 run (the cold stream) across 2 streams", m.Runs, m.Streams)
	}
}

func TestStreamRunErrorsAreTypedEvents(t *testing.T) {
	// A run failure after the stream has started must arrive as an error
	// event carrying the same typed detail as the blocking envelope.
	s := New(Config{Workers: 1, JobTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	events := readStream(t, ts.URL, "/v1/run?stream=ndjson", `{"bench":"bzip2","design":"EXISTING"}`)
	res, done := terminal(t, events)
	if done {
		t.Fatal("failed stream must not emit done")
	}
	if res.Type != eventError || res.Status != http.StatusGatewayTimeout || res.Error == nil || res.Error.Code != codeTimeout {
		t.Fatalf("error event = %+v, want typed 504/timeout", res)
	}

	// Pre-stream failures are plain HTTP errors, not streams.
	resp, err := http.Post(ts.URL+"/v1/run?stream=ndjson", "application/json", strings.NewReader(`{"bench":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != codeBadRequest {
		t.Fatalf("bad spec with stream=ndjson: status=%d body=%s, want plain 400", resp.StatusCode, body)
	}
	resp, err = http.Post(ts.URL+"/v1/run?stream=sse", "application/json", strings.NewReader(`{"bench":"wc","design":"EXISTING"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsupported stream mode: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/run?stream=ndjson&progress_every=x", "application/json", strings.NewReader(`{"bench":"wc","design":"EXISTING"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad progress_every: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamClientCancelStopsRun: dropping a streaming request cancels
// the underlying job through the request context within a bounded wait,
// the canceled result is never cached, and no goroutine survives the
// request. Uses the gated seam so the cancel/complete race is
// deterministic.
func TestStreamClientCancelStopsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := gatedServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run?stream=ndjson",
		strings.NewReader(`{"bench":"wc","design":"EXISTING"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Headers arrive immediately; the gate holds the run open. Cancel the
	// request and the job context must die with it.
	waitFor(t, func() bool { return s.runs.Load() == 1 })
	cancel()
	resp.Body.Close()
	waitFor(t, func() bool { return s.pool.Pending() == 0 })

	key, err := hfstream.Spec{Bench: "wc", Design: "EXISTING"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("canceled run was cached")
	}
	if m := s.Metrics(); m.Failures != 1 {
		t.Fatalf("failures = %d, want the canceled run counted once", m.Failures)
	}

	// Leak check: with the server closed and idle connections dropped,
	// the goroutine count returns to its pre-test level (small slack for
	// the runtime's own background goroutines).
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamClientCancelStopsRealSimulation: a dead request context
// must reach sim.Config.Cancel of a real simulation and surface as a
// CanceledError-backed 499 error event, never a cached body. The
// kernels are fast enough that racing a live run against an HTTP
// disconnect flakes, so the schedule is forced instead: streamRun is
// driven directly with a test-owned request context, a blocker holds
// the only worker until the context is canceled, and the simulation
// then starts against an already-dead context — the pre-closed-Cancel
// abort path the ffguard tests pin at the sim layer. (The HTTP-level
// disconnect plumbing itself is covered by
// TestStreamClientCancelStopsRun above.)
func TestStreamClientCancelStopsRealSimulation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	if err := s.pool.TrySubmit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}

	spec, err := hfstream.Spec{Bench: "equake", Design: "EXISTING"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/run?stream=ndjson", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		s.streamRun(rec, req, req.URL.Query(), key, spec)
	}()

	// The stream is open and the job is queued behind the blocker. Kill
	// the request context, then let the simulation start: it polls its
	// already-closed Cancel channel at cycle 0 and aborts.
	waitFor(t, func() bool { return s.pool.Pending() == 2 })
	cancel()
	close(gate)
	<-handlerDone

	events := decodeEvents(t, rec.Body)
	last := events[len(events)-1]
	if last.Type != eventError || last.Status != statusClientClosed ||
		last.Error == nil || last.Error.Code != codeCanceled {
		t.Fatalf("terminal event = %+v, want a %d/%s error event", last, statusClientClosed, codeCanceled)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("canceled simulation was cached")
	}
	if runs, fails := s.runs.Load(), s.failures.Load(); runs != 1 || fails != 1 {
		t.Fatalf("runs=%d failures=%d, want the simulation started once and canceled", runs, fails)
	}
}

func TestSweepStreamsCellsAndCachesByCell(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benches":["adpcmdec"],"designs":["EXISTING","MEMOPTI"],"single":true}`
	events := readStream(t, ts.URL, "/v1/sweep", body)
	if len(events) != 4 {
		t.Fatalf("sweep produced %d events, want 3 cells + done", len(events))
	}
	done := events[len(events)-1]
	if done.Type != eventDone || done.Cells != 3 || done.Ran != 3 || done.Hits != 0 || done.Errors != 0 {
		t.Fatalf("done tallies = %+v, want cells=3 ran=3", done)
	}
	byKey := map[string]StreamEvent{}
	for _, ev := range events[:3] {
		if ev.Type != eventMetrics || ev.Spec == nil || ev.Cache != "miss" {
			t.Fatalf("cell event = %+v, want a miss metrics event with its spec", ev)
		}
		byKey[ev.Key] = ev
	}
	if len(byKey) != 3 {
		t.Fatal("cells share keys")
	}

	// Each cell body is byte-identical to the /run response for the same
	// spec — a sweep is just /run cells under one request.
	for _, ev := range events[:3] {
		spec, err := json.Marshal(ev.Spec)
		if err != nil {
			t.Fatal(err)
		}
		status, runBody, src := post(t, ts.URL, string(spec))
		if status != 200 || src != "hit" {
			t.Fatalf("cell %s via /run: status=%d src=%q, want a 200 cache hit", spec, status, src)
		}
		if string(runBody) != ev.Body {
			t.Fatalf("cell %s: sweep body differs from /run body", spec)
		}
	}

	// Re-submitted sweep: zero new runs, every cell a hit with the same
	// bytes.
	runsBefore := s.Metrics().Runs
	again := readStream(t, ts.URL, "/v1/sweep", body)
	doneAgain := again[len(again)-1]
	if doneAgain.Hits != 3 || doneAgain.Ran != 0 {
		t.Fatalf("re-sweep tallies = %+v, want 3 hits, 0 ran", doneAgain)
	}
	for _, ev := range again[:3] {
		want, ok := byKey[ev.Key]
		if !ok || ev.Body != want.Body {
			t.Fatalf("re-sweep cell %s bytes differ from first sweep", ev.Key)
		}
	}
	if runs := s.Metrics().Runs; runs != runsBefore {
		t.Fatalf("re-sweep started %d new runs, want 0", runs-runsBefore)
	}
}

func TestSweepValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"empty grid", `{}`},
		{"no designs no single", `{"benches":["wc"]}`},
		{"unknown bench", `{"benches":["nope"],"designs":["EXISTING"]}`},
		{"unknown design", `{"benches":["wc"],"designs":["nope"]}`},
		{"unknown field", `{"benches":["wc"],"designs":["EXISTING"],"turbo":true}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != codeBadRequest {
			t.Errorf("%s: status=%d body=%s, want typed 400", tc.name, resp.StatusCode, body)
		}
	}
	// Oversized grids are rejected before anything streams.
	designs := make([]string, maxSweepCells)
	for i := range designs {
		designs[i] = `"EXISTING"`
	}
	big := fmt.Sprintf(`{"benches":["wc","bzip2"],"designs":[%s]}`, strings.Join(designs, ","))
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too large") {
		t.Fatalf("oversized grid: status=%d body=%s, want 400 too-large", resp.StatusCode, body)
	}
	if resp, err := http.Get(ts.URL + "/v1/sweep"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/sweep: %d, want 405", resp.StatusCode)
		}
	}
	if m := s.Metrics(); m.Runs != 0 {
		t.Fatalf("invalid sweeps started %d runs", m.Runs)
	}
}

// TestSweepCancelNeverCachesHalfWrittenCell: a client abandoning a
// sweep cancels in-flight cells and short-circuits unstarted ones; no
// partial cell may be published to the cache, and a later sweep re-runs
// every cell.
func TestSweepCancelNeverCachesHalfWrittenCell(t *testing.T) {
	s, gate := gatedServer(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"benches":["wc"],"designs":["EXISTING","MEMOPTI","SYNCOPTI"]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// First cell is mid-simulation (gated); drop the client.
	waitFor(t, func() bool { return s.runs.Load() == 1 })
	cancel()
	resp.Body.Close()
	waitFor(t, func() bool { return s.pool.Pending() == 0 })

	for _, design := range []string{"EXISTING", "MEMOPTI", "SYNCOPTI"} {
		key, err := hfstream.Spec{Bench: "wc", Design: design}.Key()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.cache.Get(key); ok {
			t.Fatalf("canceled sweep cached cell %s", design)
		}
	}

	// The same sweep afterwards runs every cell from scratch.
	close(gate)
	runsBefore := s.Metrics().Runs
	events := readStream(t, ts.URL, "/v1/sweep", body)
	done := events[len(events)-1]
	if done.Type != eventDone || done.Ran != 3 || done.Hits != 0 {
		t.Fatalf("post-cancel sweep tallies = %+v, want 3 fresh runs", done)
	}
	if runs := s.Metrics().Runs; runs != runsBefore+3 {
		t.Fatalf("post-cancel sweep ran %d cells, want 3", runs-runsBefore)
	}
}

// TestSweepCoalescesAcrossConcurrentSweeps: two sweeps sharing a grid
// must trigger at most one simulation per unique cell between them.
func TestSweepCoalescesAcrossConcurrentSweeps(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benches":["adpcmdec","bzip2"],"designs":["SYNCOPTI_SC"]}`
	var wg sync.WaitGroup
	streams := make([][]StreamEvent, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = readStream(t, ts.URL, "/v1/sweep", body)
		}(i)
	}
	wg.Wait()

	bodies := map[string]string{}
	for _, events := range streams {
		done := events[len(events)-1]
		if done.Type != eventDone || done.Cells != 2 || done.Errors != 0 {
			t.Fatalf("sweep done = %+v, want 2 clean cells", done)
		}
		for _, ev := range events[:len(events)-1] {
			if prev, ok := bodies[ev.Key]; ok && prev != ev.Body {
				t.Fatalf("cell %s served different bytes to concurrent sweeps", ev.Key)
			}
			bodies[ev.Key] = ev.Body
		}
	}
	if m := s.Metrics(); m.Runs != 2 {
		t.Fatalf("%d runs for 2 unique cells across 2 sweeps, want one each", m.Runs)
	}
}
