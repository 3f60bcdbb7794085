package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"hfstream/serve"
)

// slowLink delays every response write, so a stream of progress events
// outlasts the connection budgets however fast the simulation is.
type slowLink struct {
	http.ResponseWriter
	perWrite time.Duration
}

func (w slowLink) Write(p []byte) (int, error) {
	time.Sleep(w.perWrite)
	return w.ResponseWriter.Write(p)
}

func (w slowLink) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestStalledHeadersAreCutOffStreamsAreNot: a client that never finishes
// its request headers loses its connection at the header budget, while an
// NDJSON run already in flight streams on past every read budget to its
// done event (ROADMAP correctness item 4).
func TestStalledHeadersAreCutOffStreamsAreNot(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	h := s.Handler()
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(slowLink{w, 2 * time.Millisecond}, r)
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server has an unbounded read side: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v would cut long-lived NDJSON streams", srv.WriteTimeout)
	}
	// The shape under test is the production one; only the scale shrinks.
	const budget = 100 * time.Millisecond
	srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout = budget, budget, budget

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener here: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// The streamed run: dense progress events over the slow link.
	start := time.Now()
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/run?stream=ndjson&progress_every=100",
		"application/json", strings.NewReader(`{"bench":"adpcmdec","design":"EXISTING"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The stalled client: half a request line, then silence.
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/run HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	rest, err := io.ReadAll(stalled) // returns once the server hangs up
	if err != nil {
		t.Fatalf("stalled connection still open after 10s (%v); ReadHeaderTimeout is %v", err, budget)
	}
	if cut := time.Since(start); cut < budget {
		t.Fatalf("stalled connection closed after %v, before its %v budget", cut, budget)
	}
	if len(rest) > 0 && !strings.HasPrefix(string(rest), "HTTP/1.1 408") {
		t.Fatalf("stalled connection answered %q, want a bare close or 408", rest)
	}

	var last serve.StreamEvent
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("event %d: %v", events, err)
		}
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream cut after %d events and %v: %v", events, time.Since(start), err)
	}
	if last.Type != "done" {
		t.Fatalf("stream ended on a %q event after %d events, want done", last.Type, events)
	}
	if lived := time.Since(start); lived < 3*budget {
		t.Fatalf("stream lasted %v over %d events: too short to have outlived the %v budgets", lived, events, budget)
	}
}

// TestHeaderFloodIsRefused: a request whose header block is larger than
// the server's header budget is answered 431 and its connection closed,
// and the server goes on answering.
func TestHeaderFloodIsRefused(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	srv := newHTTPServer(s.Handler())
	if srv.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("MaxHeaderBytes = %d, want %d", srv.MaxHeaderBytes, maxHeaderBytes)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener here: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	flood, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	flood.SetDeadline(time.Now().Add(10 * time.Second))
	// The server answers and hangs up before it has read the whole block,
	// so the write may fail; the reply is what is checked.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		io.WriteString(flood, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Flood: "+
			strings.Repeat("a", 2*maxHeaderBytes)+"\r\n\r\n")
	}()
	resp, err := http.ReadResponse(bufio.NewReader(flood), nil)
	flood.Close()
	<-wrote
	if err != nil {
		t.Fatalf("no reply to a %d-byte header block: %v", 2*maxHeaderBytes, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("a %d-byte header block got %s, want 431", 2*maxHeaderBytes, resp.Status)
	}

	health, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/v1/healthz after the flood: %s", health.Status)
	}
}
