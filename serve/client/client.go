// Package client is the typed Go client for the hfserve /v1 HTTP API
// (wire contract in serve/API.md). It wraps the versioned endpoints in
// methods that speak the exported serve types — hfstream.Spec in,
// serve.StreamEvent / serve.Metrics / serve.ErrorDetail out — so
// callers (cmd/hfload, the cluster peer-fill path, the differential
// battery) never hand-roll HTTP or scrape response bodies.
//
// Every non-2xx response decodes into *APIError carrying the typed
// error envelope, so callers branch on Detail.Code ("queue_full",
// "draining", "timeout", "canceled", …) instead of status-code
// guessing.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hfstream"
	"hfstream/serve"
)

// Client talks to one hfserve replica. The zero value is not usable;
// construct with New. Clients are safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry *retrier
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is http.DefaultClient; callers
// bound individual calls through ctx.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the replica at baseURL (scheme://host[:port],
// no trailing path).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the typed error envelope.
type APIError struct {
	// Status is the HTTP status code (including 499, the
	// client-closed-request convention, and 504 for job timeouts).
	Status int
	// Detail is the decoded envelope payload.
	Detail serve.ErrorDetail
	// RetryAfter is the response's Retry-After hint (zero when the
	// header was absent). The retry layer waits at least this long
	// before the next attempt.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("hfserve: %s (%d): %s", e.Detail.Code, e.Status, e.Detail.Message)
}

// ErrNotCached reports a peer-tier GET for a key the shard does not
// hold. errors.Is(err, ErrNotCached) works on the *APIError PeerGet
// returns.
var ErrNotCached = errors.New("hfserve: key not cached on shard")

// Is makes APIError match ErrNotCached when it carries the not_cached
// code, so peer-fill callers can errors.Is instead of code-comparing.
func (e *APIError) Is(target error) bool {
	return target == ErrNotCached && e.Detail.Code == "not_cached"
}

// IntegrityError reports a peer-tier body that failed digest
// verification: the transfer was truncated or corrupted in flight.
// The caller must treat the bytes as garbage — count, drop, and fall
// back to local simulation; never cache.
type IntegrityError struct {
	// Key is the spec key whose body failed verification.
	Key string
	// Want is the digest the sender declared ("" = header missing).
	Want string
	// Got is the digest of the bytes actually received.
	Got string
}

func (e *IntegrityError) Error() string {
	if e.Want == "" {
		return fmt.Sprintf("hfserve: peer body for %s carries no digest", e.Key)
	}
	return fmt.Sprintf("hfserve: peer body for %s failed digest check (want %s, got %s)", e.Key, e.Want, e.Got)
}

// parseRetryAfter reads an integral-seconds Retry-After header
// (the only form hfserve emits); anything else reads as zero.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeAPIError turns a non-2xx response into *APIError; a body that
// is not a well-formed envelope still produces a typed error with code
// "internal" and the raw body as message.
func decodeAPIError(resp *http.Response, body []byte) *APIError {
	var env serve.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		env.Error = serve.ErrorDetail{Code: "internal", Message: string(bytes.TrimSpace(body))}
	}
	return &APIError{Status: resp.StatusCode, Detail: env.Error, RetryAfter: parseRetryAfter(resp.Header)}
}

// RunResult is one successful /v1/run response: the exact metrics bytes
// the direct library API would have produced, plus cache provenance.
type RunResult struct {
	// Body is the metrics snapshot — byte-identical to
	// hfstream.WithMetrics output for the same spec.
	Body []byte
	// Key is the spec's content address (X-Hfserve-Key).
	Key string
	// Cache is the response provenance (X-Hfserve-Cache): "miss" (fresh
	// simulation), "hit" (local cache), "peer" (cluster cache tier), or
	// "coalesced" (joined a concurrent identical request).
	Cache string
}

// send builds and issues one request to rawURL (the replica's base plus
// a /v1 path): a non-nil body is JSON, and header lists extra request
// headers as key, value pairs.
func (c *Client) send(ctx context.Context, method, rawURL string, body []byte, header ...string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("hfserve: %s %s: %w", method, req.URL.Path, err)
	}
	return resp, nil
}

// once is a single attempt of a unary call: send, read the whole reply,
// and turn anything but a 2xx into *APIError. Run, Metrics, PeerGet and
// PeerPut are this under withRetry.
func (c *Client) once(ctx context.Context, method, rawURL string, body []byte, header ...string) (http.Header, []byte, error) {
	resp, err := c.send(ctx, method, rawURL, body, header...)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := readReply(resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, decodeAPIError(resp, out)
	}
	return resp.Header, out, nil
}

// TooLargeError reports a reply whose body is, or declares itself, over
// serve.MaxBodyBytes. Such a body is never read into memory, and the call
// is not retried: the same server would send the same bytes again.
type TooLargeError struct {
	// Length is the declared Content-Length, or -1 when the reply declared
	// none and its body ran past the bound.
	Length int64
}

func (e *TooLargeError) Error() string {
	if e.Length < 0 {
		return fmt.Sprintf("hfserve: reply body runs past the %d-byte bound", serve.MaxBodyBytes)
	}
	return fmt.Sprintf("hfserve: reply declares %d bytes, over the %d-byte bound", e.Length, serve.MaxBodyBytes)
}

// readReply reads a unary reply's body into one buffer sized from its
// Content-Length, which hfserve always sends (serve/API.md). A length that
// is not declared gets a read that stops one byte past the bound. A body
// shorter than its declared length is io.ErrUnexpectedEOF, a transfer cut
// short.
func readReply(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > serve.MaxBodyBytes {
		return nil, &TooLargeError{Length: n}
	}
	if n < 0 {
		out, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes+1))
		if err == nil && len(out) > serve.MaxBodyBytes {
			return nil, &TooLargeError{Length: -1}
		}
		return out, err
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Run executes spec on the replica (or serves it from cache) and
// returns the metrics bytes. Failures are *APIError. Under WithRetry,
// retryable failures are re-attempted with backoff.
func (c *Client) Run(ctx context.Context, spec hfstream.Spec) (*RunResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var res *RunResult
	err = c.withRetry(ctx, func() error {
		h, out, err := c.once(ctx, http.MethodPost, c.base+"/v1/run", body)
		if err != nil {
			return err
		}
		res = &RunResult{Body: out, Key: h.Get("X-Hfserve-Key"), Cache: h.Get("X-Hfserve-Cache")}
		return nil
	})
	return res, err
}

// StreamOpts tunes a streaming run.
type StreamOpts struct {
	// ProgressEvery is the progress-event cadence in simulated cycles
	// (0 = the library default, every 1M cycles).
	ProgressEvery uint64
}

// ErrTruncatedStream reports an NDJSON stream that ended without
// reaching a terminal event — the connection died (or the server was
// killed) mid-stream. Without this check a mid-stream disconnect is
// indistinguishable from a clean end: TCP FIN and a finished response
// look identical to the reader.
var ErrTruncatedStream = errors.New("hfserve: stream truncated before terminal event")

// EventStream iterates the typed NDJSON events of a streaming response.
// Always Close it (closing cancels the underlying run if the stream is
// abandoned mid-flight).
type EventStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
	// terminal flips when a stream-ending event has been seen, making
	// a subsequent EOF clean rather than a truncation.
	terminal bool
}

func newEventStream(body io.ReadCloser) *EventStream {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	return &EventStream{body: body, sc: sc}
}

// Next returns the next event, or io.EOF when the stream ends cleanly.
// A stream that ends before its terminal event — the done event, or a
// run-level error event (which /v1/run streams emit instead of done; a
// sweep's per-cell error events carry their cell's Spec and are not
// terminal) — returns an error matching ErrTruncatedStream instead of
// a silent clean end.
func (s *EventStream) Next() (*serve.StreamEvent, error) {
	if !s.sc.Scan() {
		err := s.sc.Err()
		if s.terminal {
			if err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncatedStream, err)
		}
		return nil, ErrTruncatedStream
	}
	var ev serve.StreamEvent
	if err := json.Unmarshal(s.sc.Bytes(), &ev); err != nil {
		return nil, fmt.Errorf("hfserve: bad stream event %q: %w", s.sc.Text(), err)
	}
	if ev.Type == "done" || (ev.Type == "error" && ev.Spec == nil) {
		s.terminal = true
	}
	return &ev, nil
}

// All drains the stream and returns every remaining event.
func (s *EventStream) All() ([]serve.StreamEvent, error) {
	var events []serve.StreamEvent
	for {
		ev, err := s.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, *ev)
	}
}

// Close releases the stream's connection.
func (s *EventStream) Close() error { return s.body.Close() }

// stream POSTs body and hands back the NDJSON event iterator; non-200
// responses (which only happen before the first event) decode to
// *APIError.
func (c *Client) stream(ctx context.Context, path string, body []byte) (*EventStream, error) {
	resp, err := c.send(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		out, err := readReply(resp)
		if err != nil {
			return nil, err
		}
		return nil, decodeAPIError(resp, out)
	}
	return newEventStream(resp.Body), nil
}

// RunStream executes spec with live NDJSON events: progress heartbeats
// while the simulation runs, then a metrics (or error) event, then
// done. The metrics event's Body field carries the exact non-streaming
// response bytes.
func (c *Client) RunStream(ctx context.Context, spec hfstream.Spec, opts StreamOpts) (*EventStream, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	q := url.Values{"stream": {"ndjson"}}
	if opts.ProgressEvery > 0 {
		q.Set("progress_every", strconv.FormatUint(opts.ProgressEvery, 10))
	}
	return c.stream(ctx, "/v1/run?"+q.Encode(), body)
}

// Sweep runs a (benches × designs × options) grid, streaming per-cell
// metrics/error events in completion order and a final done event with
// the sweep tallies.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (*EventStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.stream(ctx, "/v1/sweep", body)
}

// Metrics fetches the replica's /v1/metrics counter snapshot.
func (c *Client) Metrics(ctx context.Context) (*serve.Metrics, error) {
	var m serve.Metrics
	err := c.withRetry(ctx, func() error {
		_, out, err := c.once(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
		if err != nil {
			return err
		}
		return json.Unmarshal(out, &m)
	})
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// Health is the /v1/healthz body.
type Health struct {
	Status   string `json:"status"`
	InFlight int    `json:"in_flight"`
}

// Health fetches liveness. A draining replica answers 503; that is
// reported as Health{Status:"draining"} with a nil error, since the
// body still decodes — transport failures and non-healthz bodies are
// the error cases.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	resp, err := c.send(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, serve.MaxBodyBytes)).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// PeerGet fetches the cached bytes for key from this replica's cache
// tier endpoint and verifies them against the X-Hfserve-Digest header
// before returning — a truncated or bit-flipped transfer surfaces as
// *IntegrityError, never as plausible-looking bytes. A cold shard
// returns an *APIError matching ErrNotCached; the endpoint never
// simulates.
func (c *Client) PeerGet(ctx context.Context, key string) ([]byte, error) {
	var body []byte
	err := c.withRetry(ctx, func() error {
		h, out, err := c.once(ctx, http.MethodGet, c.base+"/v1/peer/"+key, nil)
		if err != nil {
			return err
		}
		// Verified inside the attempt: a damaged transfer is retryable,
		// and a re-fetch redraws the channel.
		want := h.Get(serve.HeaderDigest)
		if got := serve.Digest(out); want == "" || got != want {
			return &IntegrityError{Key: key, Want: want, Got: got}
		}
		body = out
		return nil
	})
	return body, err
}

// PeerPut publishes a computed result into this replica's cache tier,
// declaring the body digest and the spec the key was derived from so
// the receiver can verify both before caching (a transfer damaged in
// flight is rejected with 400, never stored).
func (c *Client) PeerPut(ctx context.Context, key string, spec hfstream.Spec, body []byte) error {
	canon, err := spec.Canonical()
	if err != nil {
		return err
	}
	digest := serve.Digest(body)
	return c.withRetry(ctx, func() error {
		_, _, err := c.once(ctx, http.MethodPut, c.base+"/v1/peer/"+key, body,
			serve.HeaderDigest, digest, serve.HeaderSpec, string(canon))
		return err
	})
}
