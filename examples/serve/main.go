// Walk through the simulation service end to end against an in-process
// server: a cold run (cache miss), the same spec re-posted (cache hit,
// byte-identical body), a burst of concurrent identical requests
// (coalesced onto one simulation), a streamed run (live NDJSON progress
// events, with the metrics event carrying the exact non-streaming
// bytes), a /v1/sweep over a grid plus the re-sweep that simulates
// nothing, the typed error envelope, the /v1/metrics counters, and finally
// a graceful drain. Everything here works the same against a real
// `go run ./cmd/hfserve` — swap ts.URL for its address.
//
//	go run ./examples/serve
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"hfstream"
	"hfstream/serve"
)

// streamNDJSON posts a spec to a streaming endpoint and decodes the
// event lines.
func streamNDJSON(url, path, body string) []serve.StreamEvent {
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var events []serve.StreamEvent
	for sc.Scan() {
		var ev serve.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			log.Fatal(err)
		}
		events = append(events, ev)
	}
	return events
}

func main() {
	s := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, []byte, http.Header) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return resp.StatusCode, b, resp.Header
	}

	// A job spec names a benchmark and a design point; the response body
	// is exactly the metrics snapshot WithMetrics writes for the same run.
	spec := `{"bench":"adpcmdec","design":"SYNCOPTI_SC+Q64"}`
	status, cold, hdr := post(spec)
	fmt.Printf("cold:      %d %-9s key=%s… (%d bytes)\n",
		status, hdr.Get("X-Hfserve-Cache"), hdr.Get("X-Hfserve-Key")[:12], len(cold))

	// Same spec again: served from the content-addressed cache. The key is
	// computed from the normalized spec, so field order doesn't matter.
	status, hot, hdr := post(`{"design":"SYNCOPTI_SC+Q64","bench":"adpcmdec"}`)
	fmt.Printf("cached:    %d %-9s byte-identical=%v\n",
		status, hdr.Get("X-Hfserve-Cache"), bytes.Equal(hot, cold))

	// The served bytes match a direct library call exactly — the point of
	// a deterministic simulator.
	b, err := hfstream.BenchmarkByName("adpcmdec")
	if err != nil {
		log.Fatal(err)
	}
	var direct bytes.Buffer
	if _, err := hfstream.RunCtx(context.Background(), b, hfstream.SyncOptiSCQ64,
		hfstream.WithMetrics(&direct)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct:    matches served body=%v\n", bytes.Equal(direct.Bytes(), cold))

	// Concurrent identical requests for a new spec coalesce onto a single
	// underlying simulation; every caller gets the same bytes.
	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i], _ = post(`{"bench":"bzip2","design":"HEAVYWT"}`)
		}(i)
	}
	wg.Wait()
	same := true
	for i := 1; i < n; i++ {
		same = same && bytes.Equal(bodies[i], bodies[0])
	}
	m := s.Metrics()
	fmt.Printf("coalesced: %d identical requests -> %d runs (identical bodies=%v)\n",
		n, m.Runs-1, same) // -1: the adpcmdec run above

	// Streaming mode: the same /v1/run, but the response is NDJSON events —
	// progress heartbeats while the simulation runs, then a metrics event
	// whose body field carries the exact bytes the blocking /v1/run would
	// have returned, then done. (?progress_every tightens the cadence so
	// even this sub-megacycle benchmark emits heartbeats.)
	events := streamNDJSON(ts.URL, "/v1/run?stream=ndjson&progress_every=5000",
		`{"bench":"wc","design":"SYNCOPTI"}`)
	var wcStream string
	progress := 0
	for _, ev := range events {
		if ev.Type == "progress" {
			progress++
		}
		if ev.Type == "metrics" {
			wcStream = ev.Body
		}
	}
	fmt.Printf("streamed:  %d events (%d progress), terminal=%q\n",
		len(events), progress, events[len(events)-1].Type)

	// The streamed body and a blocking /v1/run agree byte for byte: caching,
	// coalescing and streaming all sit on one deterministic result path.
	_, wcPlain, _ := post(`{"bench":"wc","design":"SYNCOPTI"}`)
	fmt.Printf("stream=plain bytes=%v\n", wcStream == string(wcPlain))

	// /v1/sweep expands a (benches x designs) grid — "*" means "all" — and
	// streams each cell's result as it completes, closing with tallies.
	sweep := `{"benches":["adpcmdec","wc"],"designs":["EXISTING","SYNCOPTI"]}`
	events = streamNDJSON(ts.URL, "/v1/sweep", sweep)
	tally := events[len(events)-1]
	fmt.Printf("sweep:     cells=%d ran=%d hits=%d errors=%d\n",
		tally.Cells, tally.Ran, tally.Hits, tally.Errors)

	// Cells are cache-keyed exactly like /v1/run specs, so re-submitting the
	// sweep simulates nothing: every cell is a hit with identical bytes.
	events = streamNDJSON(ts.URL, "/v1/sweep", sweep)
	tally = events[len(events)-1]
	fmt.Printf("re-sweep:  cells=%d ran=%d hits=%d\n", tally.Cells, tally.Ran, tally.Hits)

	// Errors are typed JSON envelopes: {"error":{"code","message"}}.
	status, body, _ := post(`{"bench":"nope","design":"HEAVYWT"}`)
	fmt.Printf("bad spec:  %d %s\n", status, bytes.TrimSpace(body))

	m = s.Metrics()
	fmt.Printf("metrics:   requests=%d streams=%d sweeps=%d runs=%d hits=%d coalesced=%d simulated-cycles=%d\n",
		m.Requests, m.Streams, m.Sweeps, m.Runs, m.CacheHits, m.Coalesced, m.Simulated.Cycles)

	// Graceful drain: stop admitting, finish in-flight work, then idle.
	// cmd/hfserve runs this on SIGTERM/SIGINT. Cached results are still
	// served (they cost no work); anything needing a simulation is
	// rejected with the typed 503.
	if err := s.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	status, body, _ = post(`{"bench":"fir","design":"EXISTING"}`)
	fmt.Printf("drained:   new work gets %d %s\n", status, bytes.TrimSpace(body))
}
