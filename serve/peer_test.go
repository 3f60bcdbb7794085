package serve

// Unit tests for the cluster seam at the serve layer: the /v1/peer
// cache-tier endpoint, the Peer fill/store hooks in runOne, and the
// /v1 <-> legacy path aliasing.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hfstream"
)

// peerURL builds the tier path for a key.
func peerURL(ts *httptest.Server, key string) string {
	return ts.URL + "/v1/peer/" + key
}

func doReq(t *testing.T, method, url string, body string) (int, []byte, http.Header) {
	t.Helper()
	return doReqH(t, method, url, body, nil)
}

// doReqH is doReq with request headers (the peer PUT protocol needs
// the digest and spec headers).
func doReqH(t *testing.T, method, url string, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf, resp.Header
}

// peerPayload builds a valid peer-PUT triple (key, headers, body) for
// a single-run bzip2 spec: the body carries matching annotations, the
// headers carry the true digest and the spec's canonical JSON.
func peerPayload(t *testing.T) (key string, hdr map[string]string, payload string) {
	t.Helper()
	spec := hfstream.Spec{Bench: "bzip2", Single: true}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	payload = `{"benchmark":"bzip2","design":"SINGLE","fake":true}`
	hdr = map[string]string{
		HeaderDigest: Digest([]byte(payload)),
		HeaderSpec:   string(canon),
	}
	return key, hdr, payload
}

func TestServePeerTier(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	key, putHdr, payload := peerPayload(t)

	// Cold shard: typed not_cached, never a simulation.
	status, body, _ := doReq(t, http.MethodGet, peerURL(ts, key), "")
	if status != http.StatusNotFound || errCode(t, body) != codeNotCached {
		t.Fatalf("cold GET: status=%d code=%q", status, errCode(t, body))
	}
	if runs := s.Metrics().Runs; runs != 0 {
		t.Fatalf("peer GET started %d simulations", runs)
	}

	// Install bytes, read them back with the local provenance tag and
	// the body digest the filling side verifies.
	status, _, _ = doReqH(t, http.MethodPut, peerURL(ts, key), payload, putHdr)
	if status != http.StatusNoContent {
		t.Fatalf("PUT: status=%d", status)
	}
	status, body, hdr := doReq(t, http.MethodGet, peerURL(ts, key), "")
	if status != http.StatusOK || string(body) != payload {
		t.Fatalf("GET after PUT: status=%d body=%q", status, body)
	}
	if hdr.Get("X-Hfserve-Cache") != "local" || hdr.Get("X-Hfserve-Key") != key {
		t.Fatalf("GET headers: cache=%q key=%q", hdr.Get("X-Hfserve-Cache"), hdr.Get("X-Hfserve-Key"))
	}
	if got := hdr.Get(HeaderDigest); got != Digest([]byte(payload)) {
		t.Fatalf("GET digest header = %q, want body digest", got)
	}

	// A headerless PUT (the pre-digest protocol) is refused: the tier
	// never caches unverifiable bytes.
	status, body, _ = doReq(t, http.MethodPut, peerURL(ts, key), payload)
	if status != http.StatusBadRequest {
		t.Fatalf("headerless PUT: status=%d %s", status, body)
	}

	// Malformed keys and bodies are rejected up front.
	for _, bad := range []string{"short", strings.Repeat("AB", 32), strings.Repeat("zz", 32)} {
		if status, body, _ = doReq(t, http.MethodGet, peerURL(ts, bad), ""); status != http.StatusBadRequest {
			t.Errorf("GET with key %q: status=%d %s", bad, status, body)
		}
	}
	if status, body, _ = doReqH(t, http.MethodPut, peerURL(ts, key), "", putHdr); status != http.StatusBadRequest {
		t.Errorf("empty PUT: status=%d %s", status, body)
	}
	if status, body, _ = doReq(t, http.MethodPost, peerURL(ts, key), payload); status != http.StatusMethodNotAllowed {
		t.Errorf("POST: status=%d %s", status, body)
	}

	// A draining shard refuses fills (with a Retry-After hint) so peers
	// fail over to local compute.
	s.BeginDrain()
	status, body, hdr = doReq(t, http.MethodGet, peerURL(ts, key), "")
	if status != http.StatusServiceUnavailable || errCode(t, body) != codeDraining {
		t.Fatalf("draining GET: status=%d code=%q", status, errCode(t, body))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining GET carries no Retry-After header")
	}
}

// cacheMiss asserts key is absent from s's local cache — the
// no-cache.Put-on-rejection invariant every integrity test relies on.
func cacheMiss(t *testing.T, s *Server, key string) {
	t.Helper()
	if _, ok := s.cache.Get(key); ok {
		t.Fatalf("rejected peer PUT still cached key %s", key)
	}
}

// TestPeerPutIntegrityRejections drives the poisoning attempts the
// digest protocol exists to stop: every one must be refused with a
// typed 400, counted, and — the load-bearing part — never cached.
func TestPeerPutIntegrityRejections(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	key, putHdr, payload := peerPayload(t)

	corrupt := []byte(payload)
	corrupt[len(corrupt)/2] ^= 0xff
	truncated := payload[:len(payload)/2]

	otherSpec := hfstream.Spec{Bench: "bzip2", Design: "EXISTING"}
	otherCanon, err := otherSpec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// A body whose annotations disagree with the declared (key-matching)
	// spec: right shape, wrong workload.
	wrongAnn := `{"benchmark":"adpcmdec","design":"EXISTING","fake":true}`

	cases := []struct {
		name     string
		body     string
		hdr      map[string]string
		wantCode string
	}{
		{"corrupted body", string(corrupt), putHdr, codeIntegrity},
		{"truncated body", truncated, putHdr, codeIntegrity},
		{"missing digest", payload, map[string]string{HeaderSpec: putHdr[HeaderSpec]}, codeBadRequest},
		{"missing spec", payload, map[string]string{HeaderDigest: putHdr[HeaderDigest]}, codeBadRequest},
		{"spec does not hash to key", payload, map[string]string{
			HeaderDigest: putHdr[HeaderDigest], HeaderSpec: string(otherCanon)}, codeBadRequest},
		{"annotations disagree with spec", wrongAnn, map[string]string{
			HeaderDigest: Digest([]byte(wrongAnn)), HeaderSpec: putHdr[HeaderSpec]}, codeIntegrity},
		{"unparseable spec header", payload, map[string]string{
			HeaderDigest: putHdr[HeaderDigest], HeaderSpec: "{not json"}, codeBadRequest},
	}
	for i, tc := range cases {
		status, body, _ := doReqH(t, http.MethodPut, peerURL(ts, key), tc.body, tc.hdr)
		if status != http.StatusBadRequest || errCode(t, body) != tc.wantCode {
			t.Errorf("%s: status=%d code=%q, want 400 %q", tc.name, status, errCode(t, body), tc.wantCode)
		}
		cacheMiss(t, s, key)
		if got := s.Metrics().PeerPutRejected; got != uint64(i+1) {
			t.Errorf("%s: PeerPutRejected=%d, want %d", tc.name, got, i+1)
		}
	}

	// After all that abuse the honest PUT still lands.
	if status, body, _ := doReqH(t, http.MethodPut, peerURL(ts, key), payload, putHdr); status != http.StatusNoContent {
		t.Fatalf("honest PUT after rejections: status=%d %s", status, body)
	}
	if got, ok := s.cache.Get(key); !ok || string(got) != payload {
		t.Fatal("honest PUT did not cache the verified bytes")
	}
}

// TestPeerPutSizeBoundary pins the 8MiB cap: a body at exactly the cap
// is verified and cached; one byte past it is refused before
// verification (and never cached).
func TestPeerPutSizeBoundary(t *testing.T) {
	s := New(Config{Workers: 1, CacheBytes: 32 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := hfstream.Spec{Bench: "bzip2", Single: true}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// Build a valid-annotation JSON body padded to exactly the cap.
	prefix := `{"benchmark":"bzip2","design":"SINGLE","pad":"`
	suffix := `"}`
	pad := strings.Repeat("x", MaxBodyBytes-len(prefix)-len(suffix))
	atCap := prefix + pad + suffix
	if len(atCap) != MaxBodyBytes {
		t.Fatalf("test bug: body is %d bytes, want %d", len(atCap), MaxBodyBytes)
	}
	hdr := map[string]string{HeaderDigest: Digest([]byte(atCap)), HeaderSpec: string(canon)}
	if status, body, _ := doReqH(t, http.MethodPut, peerURL(ts, key), atCap, hdr); status != http.StatusNoContent {
		t.Fatalf("PUT at cap: status=%d %s", status, body)
	}
	if _, ok := s.cache.Get(key); !ok {
		t.Fatal("at-cap body not cached")
	}

	// One byte over: MaxBytesReader trips, 400, nothing cached (a fresh
	// server, so the at-cap insert above can't mask the check).
	s2 := New(Config{Workers: 1, CacheBytes: 32 << 20})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	overCap := prefix + pad + "x" + suffix
	hdr[HeaderDigest] = Digest([]byte(overCap))
	if status, body, _ := doReqH(t, http.MethodPut, peerURL(ts2, key), overCap, hdr); status != http.StatusBadRequest {
		t.Fatalf("PUT over cap: status=%d %s", status, body)
	}
	cacheMiss(t, s2, key)
}

// fakePeer is a scripted Peer for exercising runOne's fill/store seam
// without the cluster package.
type fakePeer struct {
	mu     sync.Mutex
	fill   map[string][]byte
	stored map[string][]byte
	fills  int
}

func newFakePeer() *fakePeer {
	return &fakePeer{fill: make(map[string][]byte), stored: make(map[string][]byte)}
}

func (f *fakePeer) Fill(ctx context.Context, key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fills++
	body, ok := f.fill[key]
	return body, ok
}

func (f *fakePeer) Store(key string, spec hfstream.Spec, body []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stored[key] = append([]byte(nil), body...)
}

func (f *fakePeer) Stats() PeerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return PeerStats{Replicas: 2, Fills: uint64(f.fills)}
}

func TestServePeerFillSeam(t *testing.T) {
	peer := newFakePeer()
	s := New(Config{Workers: 1, Peer: peer})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := hfstream.Spec{Bench: "bzip2", Design: "EXISTING"}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Miss everywhere: the run simulates locally and publishes the fresh
	// bytes through Store.
	status, body, src := post(t, ts.URL, `{"bench":"bzip2","design":"EXISTING"}`)
	if status != http.StatusOK || src != "miss" {
		t.Fatalf("cold run: status=%d src=%q", status, src)
	}
	waitFor(t, func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return peer.stored[key] != nil
	})
	peer.mu.Lock()
	stored := peer.stored[key]
	peer.mu.Unlock()
	if !bytes.Equal(stored, body) {
		t.Error("stored bytes differ from the served response")
	}

	// A peer-supplied body short-circuits simulation and lands in the
	// local cache: provenance "peer" once, then "hit".
	spec2 := hfstream.Spec{Bench: "bzip2", Design: "MEMOPTI"}
	norm2, err := spec2.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key2, err := norm2.Key()
	if err != nil {
		t.Fatal(err)
	}
	canned := []byte(`{"canned":"peer bytes"}`)
	peer.mu.Lock()
	peer.fill[key2] = canned
	peer.mu.Unlock()

	status, body, src = post(t, ts.URL, `{"bench":"bzip2","design":"MEMOPTI"}`)
	if status != http.StatusOK || src != "peer" || !bytes.Equal(body, canned) {
		t.Fatalf("peer fill: status=%d src=%q body=%q", status, src, body)
	}
	status, _, src = post(t, ts.URL, `{"bench":"bzip2","design":"MEMOPTI"}`)
	if status != http.StatusOK || src != "hit" {
		t.Fatalf("after fill: status=%d src=%q, want local hit", status, src)
	}
	if runs := s.Metrics().Runs; runs != 1 {
		t.Errorf("server simulated %d times, want only the first spec", runs)
	}

	// The tier's counters surface under /v1/metrics.
	m := s.Metrics()
	if m.PeerHits != 1 || m.Peer == nil || m.Peer.Replicas != 2 {
		t.Errorf("metrics peer view = hits:%d %+v", m.PeerHits, m.Peer)
	}
}
