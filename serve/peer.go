package serve

// The cluster cache tier seam. A Server is clustered by handing Config a
// Peer implementation (serve/cluster provides the production one built
// on consistent-hash routing): on a local cache miss runOne calls
// Peer.Fill to ask the key's owner shard for the bytes before
// simulating, and publishes fresh local results through Peer.Store so
// the owners' caches converge. Determinism plus content addressing is
// what makes this sound — a Spec.Key fully determines its response
// bytes, so a peer's cached body is byte-identical to what a local
// simulation would produce, and no coherence protocol is needed.
//
// The server side of the tier is the /v1/peer/{key} endpoint below:
// GET serves the local cache only (it never simulates, so fill chains
// cannot recurse or amplify load), PUT installs a replica's fresh result
// into this shard's cache.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"hfstream"
)

// Peer protocol headers. Every peer-tier body travels with its SHA-256
// so a transfer damaged in flight (truncated, bit-flipped) is detected
// before it can enter a cache; every PUT also declares the spec its
// key was derived from so the receiver can re-derive and verify the
// key↔body binding instead of trusting the sender.
const (
	// HeaderDigest carries the lowercase-hex SHA-256 of the body, on
	// peer GET responses and PUT requests.
	HeaderDigest = "X-Hfserve-Digest"
	// HeaderSpec carries the canonical spec JSON (hfstream.Spec
	// canonical form) on peer PUT requests.
	HeaderSpec = "X-Hfserve-Spec"
)

// Digest computes the peer-protocol body digest: lowercase hex
// SHA-256, the same derivation as Spec.Key so the whole protocol
// hashes one way.
func Digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Peer is the cluster cache tier a Server consults around its local
// cache. Implementations must be safe for concurrent use.
type Peer interface {
	// Fill fetches the cached bytes for key from the key's owner
	// shard(s). It must be bounded (its own timeout, independent of the
	// job budget) and must never fail a request: any error is reported
	// as a miss and the caller simulates locally. Implementations must
	// verify body integrity (HeaderDigest) before returning bytes.
	Fill(ctx context.Context, key string) ([]byte, bool)
	// Store publishes a locally computed result to the key's owner
	// shard(s), carrying the spec the key was derived from so receivers
	// can verify the binding. It must not block the serving path (queue
	// or drop).
	Store(key string, spec hfstream.Spec, body []byte)
	// Stats snapshots the tier's counters for /v1/metrics.
	Stats() PeerStats
}

// PeerStats is the peering tier's counter snapshot, surfaced under the
// "peer" field of /v1/metrics when clustering is enabled.
type PeerStats struct {
	// Replicas is the ring size including this replica.
	Replicas int `json:"replicas"`
	// Fills counts fill attempts (local misses that consulted a peer);
	// Hits/Misses split their outcomes. Errors counts transport
	// failures and Timeouts the subset that hit the fill deadline;
	// SkippedDown counts fills short-circuited because every candidate
	// owner was marked down.
	Fills       uint64 `json:"fills"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Errors      uint64 `json:"errors"`
	Timeouts    uint64 `json:"timeouts"`
	SkippedDown uint64 `json:"skipped_down"`
	// Stores counts successful publications to owner shards,
	// StoreErrors failed ones, StoreDropped publications dropped
	// because the async store queue was full.
	Stores       uint64 `json:"stores"`
	StoreErrors  uint64 `json:"store_errors"`
	StoreDropped uint64 `json:"store_dropped"`
	// PeersDown is the number of peers whose circuit breaker is not
	// closed (open or probing half-open).
	PeersDown int `json:"peers_down"`
	// BreakerOpens counts closed→open breaker transitions across all
	// peers (every reopen after a failed half-open probe counts too).
	BreakerOpens uint64 `json:"breaker_opens"`
	// IntegrityDrops counts peer fills discarded because the body
	// failed digest verification — detected corruption, never cached.
	IntegrityDrops uint64 `json:"integrity_drops"`
}

// codeNotCached is the typed 404 of GET /v1/peer/{key}: the shard does
// not hold the key. Distinct from bad_request so a filling replica can
// tell "owner is healthy but cold" from "I sent garbage".
const codeNotCached = "not_cached"

// MaxBodyBytes bounds a metrics body in either direction: the PUT
// /v1/peer request this server accepts, and every unary reply
// serve/client reads. Metrics snapshots are a few KiB, so anything near
// this bound is a protocol error.
const MaxBodyBytes = 8 << 20

// isSpecKey reports whether key has the shape of a Spec.Key: 64 bytes
// of lowercase hex. Peer endpoints reject anything else so junk keys
// can never occupy cache budget.
func isSpecKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handlePeer serves the cluster-internal cache tier: GET returns the
// locally cached bytes for a key (404 not_cached on miss — never a
// simulation), PUT installs a peer's freshly computed bytes.
func (s *Server) handlePeer(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/peer/")
	if !isSpecKey(key) {
		writeOutcome(w, "", errorOutcome(http.StatusBadRequest, codeBadRequest,
			"peer key must be a 64-char lowercase hex Spec.Key", nil))
		return
	}
	switch r.Method {
	case http.MethodGet:
		if s.draining.Load() {
			// A draining replica stops answering fills so peers fail over
			// to local compute instead of racing its teardown.
			writeOutcome(w, key, errorOutcome(http.StatusServiceUnavailable, codeDraining,
				"server is draining", nil).withRetryAfter(retryAfterDraining))
			return
		}
		body, ok := s.cache.Get(key)
		if !ok {
			writeOutcome(w, key, errorOutcome(http.StatusNotFound, codeNotCached,
				"key not cached on this shard", nil))
			return
		}
		w.Header().Set(HeaderDigest, Digest(body))
		writeOutcome(w, key, &outcome{status: http.StatusOK, body: body, source: "local", ok: true})
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			writeOutcome(w, key, errorOutcome(http.StatusBadRequest, codeBadRequest,
				"peer body: "+err.Error(), nil))
			return
		}
		if len(body) == 0 {
			writeOutcome(w, key, errorOutcome(http.StatusBadRequest, codeBadRequest,
				"peer body must be non-empty", nil))
			return
		}
		if out := s.verifyPeerPut(key, r.Header, body); out != nil {
			s.peerPutBad.Add(1)
			writeOutcome(w, key, out)
			return
		}
		// Determinism makes this idempotent: a re-put for a resident key
		// carries identical bytes, and resultCache.Put just refreshes
		// recency.
		s.cache.Put(key, body)
		w.WriteHeader(http.StatusNoContent)
	default:
		writeOutcome(w, "", errorOutcome(http.StatusMethodNotAllowed, codeBadRequest,
			"GET or PUT required", nil))
	}
}

// verifyPeerPut decides whether a peer PUT may enter the cache; nil
// means verified. The cache is content-addressed and re-served without
// further checks, so this is the single gate keeping poisoned bytes
// out of the cluster:
//
//  1. the declared digest must match the received body (catches
//     truncation or corruption in flight — "integrity");
//  2. the declared spec must canonicalize to exactly the key being
//     PUT (catches a body filed under someone else's address);
//  3. the body's own benchmark/design annotations must agree with the
//     spec (catches a well-formed body for a different workload).
//
// A rejected PUT is counted and dropped — never cached; the sender
// falls back to recomputing locally, which determinism makes safe.
func (s *Server) verifyPeerPut(key string, h http.Header, body []byte) *outcome {
	wantDigest := h.Get(HeaderDigest)
	if wantDigest == "" {
		return errorOutcome(http.StatusBadRequest, codeBadRequest,
			"peer put requires "+HeaderDigest, nil)
	}
	if got := Digest(body); got != wantDigest {
		return errorOutcome(http.StatusBadRequest, codeIntegrity,
			"peer body failed digest verification (want "+wantDigest+", got "+got+"); dropped, not cached", nil)
	}
	specHdr := h.Get(HeaderSpec)
	if specHdr == "" {
		return errorOutcome(http.StatusBadRequest, codeBadRequest,
			"peer put requires "+HeaderSpec, nil)
	}
	var spec hfstream.Spec
	if err := json.Unmarshal([]byte(specHdr), &spec); err != nil {
		return errorOutcome(http.StatusBadRequest, codeBadRequest,
			HeaderSpec+": "+err.Error(), nil)
	}
	specKey, err := spec.Key()
	if err != nil {
		return errorOutcome(http.StatusBadRequest, codeBadRequest,
			HeaderSpec+": "+err.Error(), nil)
	}
	if specKey != key {
		return errorOutcome(http.StatusBadRequest, codeBadRequest,
			"declared spec hashes to "+specKey+", not the put key", nil)
	}
	norm, err := spec.Normalize()
	if err != nil {
		return errorOutcome(http.StatusBadRequest, codeBadRequest,
			HeaderSpec+": "+err.Error(), nil)
	}
	var ann struct {
		Benchmark string `json:"benchmark"`
		Design    string `json:"design"`
	}
	if err := json.Unmarshal(body, &ann); err != nil {
		return errorOutcome(http.StatusBadRequest, codeIntegrity,
			"peer body is not a metrics snapshot: "+err.Error(), nil)
	}
	wantDesign := norm.Design
	if norm.Single {
		wantDesign = "SINGLE"
	}
	if ann.Benchmark != norm.Bench || ann.Design != wantDesign {
		return errorOutcome(http.StatusBadRequest, codeIntegrity,
			"peer body annotations ("+ann.Benchmark+"/"+ann.Design+") do not match the declared spec ("+
				norm.Bench+"/"+wantDesign+"); dropped, not cached", nil)
	}
	return nil
}
