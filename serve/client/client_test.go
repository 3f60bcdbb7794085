package client_test

// The client package's own tests run against a real serve.Server, so
// they double-check the wire contract in serve/API.md from the consumer
// side: typed results, typed error envelopes, NDJSON event iteration,
// and the peer-tier verbs.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
	"hfstream/serve/faultnet"
)

func newServerAndClient(t *testing.T) (*serve.Server, *client.Client) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL)
}

var testSpec = hfstream.Spec{Bench: "bzip2", Design: "EXISTING"}

func TestClientRun(t *testing.T) {
	_, cl := newServerAndClient(t)
	ctx := context.Background()

	res, err := cl.Run(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "miss" || len(res.Key) != 64 || len(res.Body) == 0 {
		t.Fatalf("cold run: cache=%q key=%q len=%d", res.Cache, res.Key, len(res.Body))
	}
	hot, err := cl.Run(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Cache != "hit" || !bytes.Equal(hot.Body, res.Body) || hot.Key != res.Key {
		t.Fatalf("hot run: cache=%q, body match=%v", hot.Cache, bytes.Equal(hot.Body, res.Body))
	}
}

func TestClientRunAPIError(t *testing.T) {
	_, cl := newServerAndClient(t)
	_, err := cl.Run(context.Background(), hfstream.Spec{Bench: "no-such-bench"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Detail.Code != "bad_request" {
		t.Fatalf("APIError = %+v", apiErr)
	}
	if !strings.Contains(apiErr.Error(), "bad_request") {
		t.Errorf("Error() = %q, want the code in the message", apiErr.Error())
	}
}

func TestClientRunStream(t *testing.T) {
	_, cl := newServerAndClient(t)
	st, err := cl.RunStream(context.Background(), testSpec, client.StreamOpts{ProgressEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	events, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	var progress, metrics, done int
	var lastSeq uint64
	for i, ev := range events {
		if i > 0 && ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not monotone after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case "progress":
			progress++
		case "metrics":
			metrics++
			if ev.Cache != "miss" || ev.Body == "" {
				t.Errorf("metrics event: cache=%q body empty=%v", ev.Cache, ev.Body == "")
			}
		case "done":
			done++
		}
	}
	if progress == 0 || metrics != 1 || done != 1 {
		t.Fatalf("stream shape: %d progress, %d metrics, %d done", progress, metrics, done)
	}
	// After All, the iterator is exhausted.
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("Next after All: %v, want io.EOF", err)
	}
}

func TestClientSweep(t *testing.T) {
	srv, cl := newServerAndClient(t)
	st, err := cl.Sweep(context.Background(), serve.SweepRequest{
		Benches: []string{"bzip2"}, Designs: []string{"EXISTING", "MEMOPTI"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	events, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Cells != 2 || last.Ran != 2 || last.Errors != 0 {
		t.Fatalf("sweep done = %+v", last)
	}
	if runs := srv.Metrics().Runs; runs != 2 {
		t.Fatalf("sweep simulated %d cells", runs)
	}

	// A bad grid fails before any event streams: a typed *APIError.
	_, err = cl.Sweep(context.Background(), serve.SweepRequest{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("empty sweep error = %v", err)
	}
}

func TestClientMetricsAndHealth(t *testing.T) {
	srv, cl := newServerAndClient(t)
	ctx := context.Background()
	if _, err := cl.Run(ctx, testSpec); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 1 || m.Requests != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	srv.BeginDrain()
	if h, err = cl.Health(ctx); err != nil || h.Status != "draining" {
		t.Fatalf("draining health = %+v, err=%v", h, err)
	}
}

func TestClientPeerVerbs(t *testing.T) {
	// Two replicas: run on A for a real (key, body), publish to B, read
	// it back digest-verified.
	_, clA := newServerAndClient(t)
	_, clB := newServerAndClient(t)
	ctx := context.Background()

	res, err := clA.Run(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clB.PeerGet(ctx, res.Key); !errors.Is(err, client.ErrNotCached) {
		t.Fatalf("cold PeerGet error = %v, want ErrNotCached match", err)
	}
	if err := clB.PeerPut(ctx, res.Key, testSpec, res.Body); err != nil {
		t.Fatal(err)
	}
	got, err := clB.PeerGet(ctx, res.Key)
	if err != nil || !bytes.Equal(got, res.Body) {
		t.Fatalf("PeerGet after put: %d bytes, %v", len(got), err)
	}
	if err := clB.PeerPut(ctx, "bogus-key", testSpec, res.Body); err == nil {
		t.Error("PeerPut with a malformed key succeeded")
	}
	// A body that doesn't belong to the key is refused server-side with
	// the typed integrity/bad_request envelope.
	otherKey := strings.Repeat("cd", 32)
	var apiErr *client.APIError
	if err := clB.PeerPut(ctx, otherKey, testSpec, res.Body); !errors.As(err, &apiErr) {
		t.Errorf("PeerPut under a foreign key: err=%v, want *APIError", err)
	}
}

// TestClientPeerGetDigestVerification: a server that serves bytes with
// a wrong (or missing) digest header gets caught client-side with a
// typed *IntegrityError — the bytes never reach the caller.
func TestClientPeerGetDigestVerification(t *testing.T) {
	body := []byte(`{"benchmark":"bzip2","design":"SINGLE"}`)
	var digest string // per-case
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if digest != "" {
			w.Header().Set(serve.HeaderDigest, digest)
		}
		w.Write(body)
	}))
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	key := strings.Repeat("ab", 32)

	// Honest digest: bytes flow.
	digest = serve.Digest(body)
	got, err := cl.PeerGet(ctx, key)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("verified PeerGet: %v", err)
	}
	// Wrong digest (a corrupted or truncated transfer): typed error.
	digest = serve.Digest([]byte("other"))
	var ie *client.IntegrityError
	if _, err := cl.PeerGet(ctx, key); !errors.As(err, &ie) {
		t.Fatalf("corrupt PeerGet error = %v, want *IntegrityError", err)
	}
	// Missing digest (a legacy or hostile peer): also refused.
	digest = ""
	if _, err := cl.PeerGet(ctx, key); !errors.As(err, &ie) {
		t.Fatalf("digestless PeerGet error = %v, want *IntegrityError", err)
	}
}

// fakeReply is a transport that answers every request with one 200 of the
// given declared length and body, counting the requests it sees.
type fakeReply struct {
	length int64
	body   func() io.Reader
	calls  int
}

func (f *fakeReply) RoundTrip(req *http.Request) (*http.Response, error) {
	f.calls++
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: f.length,
		Body: io.NopCloser(f.body()), Request: req}, nil
}

// endless reads as an unending run of one byte.
type endless byte

func (b endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestClientReplyBound: a reply is read into one buffer of its declared
// length, which is not trusted past serve.MaxBodyBytes, and a reply that
// declares none is read no further than one byte past the bound. A reply
// over the bound is a *TooLargeError, allocated by nobody and not retried;
// a body shorter than its declared length is a cut-short transfer.
func TestClientReplyBound(t *testing.T) {
	short := func() io.Reader { return strings.NewReader(`{"benchmark":"wc"}`) }
	cases := []struct {
		name   string
		reply  fakeReply
		length int64 // of the *TooLargeError; 0 when none is wanted
		cutOff bool  // want io.ErrUnexpectedEOF
	}{
		{"declares 1 TiB", fakeReply{length: 1 << 40, body: short}, 1 << 40, false},
		{"declares one byte over", fakeReply{length: serve.MaxBodyBytes + 1, body: short}, serve.MaxBodyBytes + 1, false},
		{"undeclared, runs past", fakeReply{length: -1, body: func() io.Reader { return endless('x') }}, -1, false},
		{"declares more than it sends", fakeReply{length: 4096, body: short}, 0, true},
	}
	for _, c := range cases {
		cl := client.New("http://fake", client.WithHTTPClient(&http.Client{Transport: &c.reply}),
			client.WithRetry(client.RetryPolicy{Sleep: func(time.Duration) {}}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cl.Run(context.Background(), testSpec)
		runtime.ReadMemStats(&after)
		var tl *client.TooLargeError
		switch {
		case c.cutOff:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", c.name, err)
			}
		case !errors.As(err, &tl) || tl.Length != c.length:
			t.Errorf("%s: err = %v, want *TooLargeError{Length: %d}", c.name, err, c.length)
		case c.reply.calls != 1:
			t.Errorf("%s: %d attempts, want 1: an oversized reply is not retried", c.name, c.reply.calls)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; c.length > 0 && grew > 1<<20 {
			t.Errorf("%s: the call allocated %d bytes for a reply it refused", c.name, grew)
		}
	}

	// The bound itself is a legal size, declared or not.
	for _, length := range []int64{serve.MaxBodyBytes, -1} {
		f := fakeReply{length: length, body: func() io.Reader { return io.LimitReader(endless('x'), serve.MaxBodyBytes) }}
		res, err := client.New("http://fake", client.WithHTTPClient(&http.Client{Transport: &f})).Run(context.Background(), testSpec)
		if err != nil || len(res.Body) != serve.MaxBodyBytes {
			t.Errorf("a reply of exactly the bound, length %d declared: %v", length, err)
		}
	}
}

// TestClientPeerGetTruncatedInFlight: a peer GET whose body faultnet cuts
// in half, with a Content-Length that agrees with the half, reads as
// complete; only the digest tells, and it does.
func TestClientPeerGetTruncatedInFlight(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	defer ts.Close()
	owner := client.New(ts.URL)
	spec := hfstream.Spec{Bench: "bzip2", Single: true}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"benchmark":"bzip2","design":"SINGLE"}` + "\n")
	ctx := context.Background()
	if err := owner.PeerPut(ctx, key, spec, body); err != nil {
		t.Fatal(err)
	}
	tr := faultnet.NewTransport(faultnet.Plan{Events: []faultnet.Event{{Kind: faultnet.TruncateBody, Nth: 1}}}, nil)
	defer tr.CloseIdleConnections()
	_, err = client.New(ts.URL, client.WithHTTPClient(tr.Client())).PeerGet(ctx, key)
	var ie *client.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("truncated PeerGet: err = %v, want *IntegrityError", err)
	}
	if len(tr.Shots()) != 1 {
		t.Fatalf("shots = %v, want the one truncation", tr.ShotStrings())
	}
}

// TestClientNonEnvelopeError: a proxy-style failure (non-JSON body)
// still surfaces as a typed *APIError instead of a decode error.
func TestClientNonEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer ts.Close()
	_, err := client.New(ts.URL).Run(context.Background(), testSpec)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T", err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Detail.Code != "internal" ||
		apiErr.Detail.Message != "bad gateway" {
		t.Fatalf("APIError = %+v", apiErr)
	}
}
