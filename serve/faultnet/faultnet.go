// Package faultnet provides deterministic, seeded network fault
// injection for the hfserve cluster — the service-tier twin of the
// sim-level fault package. A Plan is a schedule of injectable events;
// an HTTP channel honours it through a Transport (an
// http.RoundTripper wrapper, pluggable into cluster.Peering and
// serve/client via http.Client).
//
// Faults come in the same two classes as the sim taxonomy, with the
// same obligations:
//
//   - Delay-class faults (Delay, SlowBody, ConnectJitter) are
//     latency-only: the request still completes with the right bytes,
//     just slower. Delays are bounded (MaxDelayMs) so an injected
//     stretch degrades a peer fill into a timeout-and-local-simulate
//     at worst, never a hang.
//
//   - Loss-class faults (Reset, Burst5xx, TruncateBody, CorruptBody,
//     Partition) sever or damage the channel. The resilience layer
//     must *detect* them (digest verification, typed errors, breaker
//     trips) — a request may fail with a typed error or degrade to
//     local compute, but it must never complete with silently wrong
//     bytes. TruncateBody and CorruptBody are aimed at the
//     digest-protected peer tier; on channels without body digests
//     (the public /v1/run surface) use RandomDisconnect plans, whose
//     loss kinds are all connection-level and therefore always
//     detectable.
//
// Determinism mirrors the sim injector: triggers are occurrence-based
// — an event fires on the Nth request through its Transport, never on
// wall time — so a plan's firing pattern is a pure function of the
// request sequence, and scenario classifications agree with
// fast-forwarding on or off.
package faultnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"hfstream/fault"
)

// Class is the sim tier's fault class: the two tiers share the
// delay/loss split and what each class obliges its survivor to do.
type Class = fault.Class

// The fault classes.
const (
	// ClassDelay faults stretch latencies; requests still complete
	// correctly.
	ClassDelay = fault.ClassDelay
	// ClassLoss faults sever or damage the channel; the resilience
	// layer must detect them.
	ClassLoss = fault.ClassLoss
)

// Kind identifies one injectable network fault type.
type Kind int

// The injectable fault kinds.
const (
	// Delay holds the Nth response for DelayMs after it arrives (a
	// slow peer that eventually answers).
	Delay Kind = iota
	// SlowBody trickles the Nth response's body, spreading DelayMs of
	// stall across small reads (a slow-loris peer).
	SlowBody
	// ConnectJitter holds the Nth request for DelayMs before sending
	// it (a congested connect path).
	ConnectJitter
	// Reset fails Count consecutive requests starting at the Nth with
	// an injected connection reset; the requests never reach the wire.
	Reset
	// Burst5xx answers Count consecutive requests starting at the Nth
	// with a synthetic 503 (Retry-After: 1) without reaching the wire
	// (an overloaded middlebox or crash-looping replica).
	Burst5xx
	// TruncateBody cuts the Nth response's body to a prefix and fixes
	// the framing so the response looks complete — only a digest
	// check can catch it.
	TruncateBody
	// CorruptBody flips one byte of the Nth request's body (when it
	// has one — the PUT path) or otherwise of its response body.
	CorruptBody
	// Partition is sticky: the host targeted by the Nth request
	// becomes unreachable from this transport for every later request
	// (a severed replica pair).
	Partition
	numKinds
)

// kindNames maps kinds to their stable wire names.
var kindNames = [numKinds]string{
	"delay", "slow-body", "connect-jitter",
	"reset", "burst-5xx", "truncate-body", "corrupt-body", "partition",
}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Class returns the kind's fault class.
func (k Kind) Class() Class {
	switch k {
	case Reset, Burst5xx, TruncateBody, CorruptBody, Partition:
		return ClassLoss
	}
	return ClassDelay
}

// MarshalJSON encodes the kind by its stable name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its stable name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("faultnet: unknown kind %q", s)
}

// MaxDelayMs bounds every delay-class stretch. It sits above the
// cluster's default 250ms fill timeout on purpose: a stretched peer
// fill must sometimes lose its race and degrade into a local
// simulation — that degradation path is part of what chaos sweeps
// exercise — while staying far below job budgets and scenario
// timeouts so a delay can never masquerade as a hang.
const MaxDelayMs = 300

// MaxBurst bounds Reset/Burst5xx run lengths, keeping an injected
// outage shorter than a bounded retry policy's patience.
const MaxBurst = 3

// Event is one scheduled network fault.
type Event struct {
	Kind Kind `json:"kind"`
	// Nth is the 1-based request count at which the event fires, per
	// Transport.
	Nth uint64 `json:"nth"`
	// DelayMs is the latency stretch for delay-class kinds.
	DelayMs uint64 `json:"delay_ms,omitempty"`
	// Count is the burst length for Reset/Burst5xx (0 = 1).
	Count uint64 `json:"count,omitempty"`
}

// Validate checks one event.
func (e Event) Validate() error {
	if e.Kind < 0 || e.Kind >= numKinds {
		return fmt.Errorf("faultnet: unknown kind %d", int(e.Kind))
	}
	if e.Nth < 1 {
		return fmt.Errorf("faultnet: %s: Nth must be >= 1, got %d", e.Kind, e.Nth)
	}
	switch e.Kind {
	case Delay, SlowBody, ConnectJitter:
		if e.DelayMs < 1 || e.DelayMs > MaxDelayMs {
			return fmt.Errorf("faultnet: %s: delay %dms outside [1, %d]", e.Kind, e.DelayMs, MaxDelayMs)
		}
		if e.Count != 0 {
			return fmt.Errorf("faultnet: %s: delay-class events take no count", e.Kind)
		}
	case Reset, Burst5xx:
		if e.Count > MaxBurst {
			return fmt.Errorf("faultnet: %s: count %d outside [0, %d]", e.Kind, e.Count, MaxBurst)
		}
		if e.DelayMs != 0 {
			return fmt.Errorf("faultnet: %s: loss-class events take no delay", e.Kind)
		}
	default: // TruncateBody, CorruptBody, Partition carry no parameters
		if e.DelayMs != 0 || e.Count != 0 {
			return fmt.Errorf("faultnet: %s: event takes no delay/count", e.Kind)
		}
	}
	return nil
}

// Plan is a reproducible schedule of network fault events.
type Plan struct {
	// Seed records how the plan was generated (provenance only;
	// replaying a plan uses its Events, not the seed).
	Seed int64 `json:"seed,omitempty"`
	// Events are the scheduled faults.
	Events []Event `json:"events"`
}

// Validate checks every event.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// HasLoss reports whether the plan contains any loss-class event.
func (p Plan) HasLoss() bool {
	for _, e := range p.Events {
		if e.Kind.Class() == ClassLoss {
			return true
		}
	}
	return false
}

// Class returns ClassLoss if any event is loss-class, else ClassDelay.
func (p Plan) Class() Class {
	if p.HasLoss() {
		return ClassLoss
	}
	return ClassDelay
}

// String renders the plan compactly, e.g.
// "seed=7[delay@3+120ms reset@2x2]".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d[", p.Seed)
	for i, e := range p.Events {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%d", e.Kind, e.Nth)
		if e.DelayMs > 0 {
			fmt.Fprintf(&b, "+%dms", e.DelayMs)
		}
		if e.Count > 0 {
			fmt.Fprintf(&b, "x%d", e.Count)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// delayKinds are the candidates RandomDelay draws from.
var delayKinds = []Kind{Delay, SlowBody, ConnectJitter}

// lossKinds are the candidates RandomLoss draws from.
var lossKinds = []Kind{Reset, Burst5xx, TruncateBody, CorruptBody, Partition}

// disconnectKinds are the candidates RandomDisconnect draws from: the
// loss kinds that are connection-level and therefore detectable on
// any channel, digested or not.
var disconnectKinds = []Kind{Reset, Burst5xx, Partition}

// RandomDelay returns a seeded plan of n delay-class events. The same
// seed always yields the same plan.
func RandomDelay(seed int64, n int) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	for i := 0; i < n; i++ {
		p.Events = append(p.Events, Event{
			Kind:    delayKinds[rng.Intn(len(delayKinds))],
			Nth:     1 + uint64(rng.Intn(12)),
			DelayMs: 1 + uint64(rng.Intn(MaxDelayMs)),
		})
	}
	return p
}

// RandomLoss returns a seeded plan with exactly one loss-class event,
// triggered early (small Nth) so the damaged channel still has
// traffic left to hurt. The full loss alphabet includes body-damage
// kinds, so RandomLoss plans belong on digest-protected channels (the
// peer tier).
func RandomLoss(seed int64) Plan { return randomLossFrom(seed, lossKinds) }

// RandomDisconnect returns a seeded plan with exactly one
// connection-level loss event (reset, 5xx burst, or partition) —
// safe on channels without body digests, where a truncation or
// bit-flip would be undetectable and therefore outside the contract.
func RandomDisconnect(seed int64) Plan { return randomLossFrom(seed, disconnectKinds) }

func randomLossFrom(seed int64, kinds []Kind) Plan {
	rng := rand.New(rand.NewSource(seed))
	k := kinds[rng.Intn(len(kinds))]
	e := Event{Kind: k, Nth: 1 + uint64(rng.Intn(6))}
	if k == Reset || k == Burst5xx {
		e.Count = 1 + uint64(rng.Intn(MaxBurst))
	}
	return Plan{Seed: seed, Events: []Event{e}}
}

// ErrInjectedReset is the error an injected Reset/Partition surfaces;
// the http.Client wraps it in *url.Error like any transport failure.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Shot records one fired network fault.
type Shot struct {
	Kind Kind `json:"kind"`
	// N is the request count at which the shot fired.
	N uint64 `json:"n"`
	// Host is the target host of the affected request.
	Host    string `json:"host,omitempty"`
	DelayMs uint64 `json:"delay_ms,omitempty"`
	Count   uint64 `json:"count,omitempty"`
}

// String renders the shot, e.g. "reset@req 3 host 127.0.0.1:4127".
func (s Shot) String() string {
	out := fmt.Sprintf("%s@req %d", s.Kind, s.N)
	if s.Host != "" {
		out += " host " + s.Host
	}
	if s.DelayMs > 0 {
		out += fmt.Sprintf(" +%dms", s.DelayMs)
	}
	if s.Count > 0 {
		out += fmt.Sprintf(" x%d", s.Count)
	}
	return out
}

// Transport is a fault-injecting http.RoundTripper: it counts the
// requests that traverse it and fires the plan's events on their Nth
// occurrence. Unlike the sim injector (one run, one goroutine), an
// HTTP transport is shared by concurrent requests, so Transport is
// safe for concurrent use; the occurrence order under concurrency is
// whatever order requests win the counter lock, which is exactly the
// order the shot log records.
type Transport struct {
	inner http.RoundTripper

	mu      sync.Mutex
	n       uint64
	pending []Event
	// burst is the live Reset/Burst5xx run: burstLeft more requests
	// get the synthetic failure.
	burstKind Kind
	burstLeft uint64
	// cut holds sticky partitioned hosts.
	cut   map[string]bool
	shots []Shot
}

// NewTransport wraps inner (nil = http.DefaultTransport) with the
// plan's fault schedule.
func NewTransport(p Plan, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:   inner,
		pending: append([]Event(nil), p.Events...),
		cut:     map[string]bool{},
	}
}

// Client wraps the transport in an *http.Client, the form
// cluster.Config.HTTPClient and serve/client.WithHTTPClient take.
func (t *Transport) Client() *http.Client { return &http.Client{Transport: t} }

// CloseIdleConnections forwards to the wrapped transport. It is the
// method (*http.Client).CloseIdleConnections looks for on its Transport;
// without it, closing a faulted client's idle connections does nothing
// and they stay pooled (see RESILIENCE.md "Teardown").
func (t *Transport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// Shots returns the log of fired faults in firing order. Sticky
// partitions log one shot per refused request.
func (t *Transport) Shots() []Shot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Shot(nil), t.shots...)
}

// ShotStrings renders the shot log (nil when nothing fired).
func (t *Transport) ShotStrings() []string {
	shots := t.Shots()
	if len(shots) == 0 {
		return nil
	}
	out := make([]string, len(shots))
	for i, s := range shots {
		out[i] = s.String()
	}
	return out
}

// closeReqBody honours the RoundTripper contract on synthetic paths:
// the transport owns the request body and must close it even when the
// request never reaches the wire.
func closeReqBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// synth503 fabricates the Burst5xx response: a typed draining
// envelope with a Retry-After hint, indistinguishable on the wire
// from an overloaded replica.
func synth503(req *http.Request) *http.Response {
	body := []byte(`{"error":{"code":"draining","message":"faultnet: injected 503 burst"}}` + "\n")
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", "1")
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// refuse answers req without reaching the wire, the way kind k fails a
// request: a synthetic 503 for Burst5xx, an injected reset for Reset
// and Partition.
func refuse(k Kind, req *http.Request) (*http.Response, error) {
	closeReqBody(req)
	if k == Burst5xx {
		return synth503(req), nil
	}
	return nil, ErrInjectedReset
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.n++
	n := t.n
	host := req.URL.Host

	if t.cut[host] {
		t.shots = append(t.shots, Shot{Kind: Partition, N: n, Host: host})
		t.mu.Unlock()
		return refuse(Partition, req)
	}
	if t.burstLeft > 0 {
		t.burstLeft--
		k := t.burstKind
		t.shots = append(t.shots, Shot{Kind: k, N: n, Host: host})
		t.mu.Unlock()
		return refuse(k, req)
	}

	var ev Event
	fired := false
	for i, e := range t.pending {
		if e.Nth == n {
			ev = e
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			fired = true
			break
		}
	}
	if fired {
		t.shots = append(t.shots, Shot{Kind: ev.Kind, N: n, Host: host, DelayMs: ev.DelayMs, Count: ev.Count})
		switch ev.Kind {
		case Partition:
			t.cut[host] = true
		case Reset, Burst5xx:
			if ev.Count > 1 {
				t.burstKind, t.burstLeft = ev.Kind, ev.Count-1
			}
		}
	}
	t.mu.Unlock()
	if !fired {
		return t.inner.RoundTrip(req)
	}

	switch ev.Kind {
	case Partition, Reset, Burst5xx:
		return refuse(ev.Kind, req)
	case ConnectJitter:
		time.Sleep(time.Duration(ev.DelayMs) * time.Millisecond)
		return t.inner.RoundTrip(req)
	case Delay:
		resp, err := t.inner.RoundTrip(req)
		time.Sleep(time.Duration(ev.DelayMs) * time.Millisecond)
		return resp, err
	case SlowBody:
		resp, err := t.inner.RoundTrip(req)
		if err == nil && resp.Body != nil {
			resp.Body = &trickleReader{rc: resp.Body, budget: time.Duration(ev.DelayMs) * time.Millisecond}
		}
		return resp, err
	case TruncateBody, CorruptBody:
		if ev.Kind == CorruptBody && req.Body != nil && req.ContentLength > 0 {
			if err := corruptRequest(req); err != nil {
				return nil, err
			}
			return t.inner.RoundTrip(req)
		}
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		return damageResponse(resp, ev.Kind), nil
	}
	return t.inner.RoundTrip(req) // unreachable: every kind is handled
}

// trickleReader is the SlowBody wrapper: it caps each read at a small
// chunk and stalls between chunks until the delay budget is spent.
type trickleReader struct {
	rc     io.ReadCloser
	budget time.Duration
}

func (r *trickleReader) Read(p []byte) (int, error) {
	const chunk = 256
	if len(p) > chunk {
		p = p[:chunk]
	}
	n, err := r.rc.Read(p)
	if r.budget > 0 {
		pause := r.budget / 4
		// Spend whatever remains when the body ends (or the next pause
		// would be negligible) so the injected stall always totals
		// DelayMs, however short the body.
		if err != nil || pause < time.Millisecond {
			pause = r.budget
		}
		r.budget -= pause
		time.Sleep(pause)
	}
	return n, err
}

func (r *trickleReader) Close() error { return r.rc.Close() }

// flipByte flips the middle byte so the damage is deterministic: no
// extra randomness enters at injection time.
func flipByte(b []byte) {
	if len(b) > 0 {
		b[len(b)/2] ^= 0xff
	}
}

// replaceBody swaps a response's body for raw and fixes the framing
// so the response looks complete and well-formed.
func replaceBody(resp *http.Response, raw []byte) *http.Response {
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	resp.Header.Set("Content-Length", fmt.Sprint(len(raw)))
	resp.TransferEncoding = nil
	return resp
}

// damageResponse halves the body (TruncateBody) or flips a byte of it
// (CorruptBody); a body that cannot be read is passed on as it came.
func damageResponse(resp *http.Response, k Kind) *http.Response {
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
	case k == TruncateBody:
		raw = raw[:len(raw)/2]
	default:
		flipByte(raw)
	}
	return replaceBody(resp, raw)
}

func corruptRequest(req *http.Request) error {
	raw, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return err
	}
	flipByte(raw)
	req.Body = io.NopCloser(bytes.NewReader(raw))
	req.ContentLength = int64(len(raw))
	return nil
}
