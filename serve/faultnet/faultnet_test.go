package faultnet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newBackend serves a fixed body for every request and counts arrivals.
func newBackend(t *testing.T, body string) (*httptest.Server, *int) {
	t.Helper()
	n := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if r.Body != nil {
			echo, _ := io.ReadAll(r.Body)
			if len(echo) > 0 { // echo endpoints let request-corruption tests observe the wire
				w.Write(echo)
				return
			}
		}
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, &n
}

func get(t *testing.T, hc *http.Client, url string) (string, error) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return string(b), errors.New(resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestPlanValidateAndString(t *testing.T) {
	p := Plan{Seed: 7, Events: []Event{
		{Kind: Delay, Nth: 3, DelayMs: 120},
		{Kind: Reset, Nth: 2, Count: 2},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "seed=7[delay@3+120ms reset@2x2]"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !p.HasLoss() || p.Class() != ClassLoss {
		t.Error("plan with a reset must classify as loss")
	}

	bad := []Event{
		{Kind: Delay, Nth: 0, DelayMs: 10},             // Nth < 1
		{Kind: Delay, Nth: 1},                          // no delay
		{Kind: Delay, Nth: 1, DelayMs: MaxDelayMs + 1}, // over bound
		{Kind: Reset, Nth: 1, Count: MaxBurst + 1},     // burst too long
		{Kind: Reset, Nth: 1, DelayMs: 5},              // loss takes no delay
		{Kind: Partition, Nth: 1, Count: 2},            // partition takes no count
		{Kind: Kind(99), Nth: 1},                       // unknown kind
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad event %d validated: %+v", i, e)
		}
	}
}

func TestPlanSeededDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := RandomDelay(seed, 3), RandomDelay(seed, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("RandomDelay(%d) not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("RandomDelay(%d): %v", seed, err)
		}
		if a.HasLoss() {
			t.Fatalf("RandomDelay(%d) produced a loss event", seed)
		}
		l1, l2 := RandomLoss(seed), RandomLoss(seed)
		if !reflect.DeepEqual(l1, l2) {
			t.Fatalf("RandomLoss(%d) not deterministic", seed)
		}
		if err := l1.Validate(); err != nil {
			t.Fatalf("RandomLoss(%d): %v", seed, err)
		}
		if !l1.HasLoss() {
			t.Fatalf("RandomLoss(%d) produced no loss event", seed)
		}
		d := RandomDisconnect(seed)
		if err := d.Validate(); err != nil {
			t.Fatalf("RandomDisconnect(%d): %v", seed, err)
		}
		for _, e := range d.Events {
			if e.Kind == TruncateBody || e.Kind == CorruptBody {
				t.Fatalf("RandomDisconnect(%d) drew a body-damage kind %s", seed, e.Kind)
			}
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := k.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalJSON(b); err != nil || back != k {
			t.Errorf("kind %s: round-trip = %v, %v", k, back, err)
		}
	}
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"no-such-kind"`)); err == nil {
		t.Error("unknown kind name unmarshalled")
	}
}

// TestTransportOccurrenceFiring pins the trigger semantics: events fire
// on the Nth request through the transport, exactly once, and the shot
// log records firing order.
func TestTransportOccurrenceFiring(t *testing.T) {
	ts, served := newBackend(t, "body")
	tr := NewTransport(Plan{Events: []Event{{Kind: Reset, Nth: 2}}}, nil)
	hc := tr.Client()

	if _, err := get(t, hc, ts.URL); err != nil {
		t.Fatalf("req 1: %v", err)
	}
	if _, err := get(t, hc, ts.URL); err == nil {
		t.Fatal("req 2 survived the scheduled reset")
	}
	for i := 3; i <= 5; i++ {
		if _, err := get(t, hc, ts.URL); err != nil {
			t.Fatalf("req %d after one-shot reset: %v", i, err)
		}
	}
	if *served != 4 {
		t.Errorf("backend saw %d requests, want 4 (the reset never reached the wire)", *served)
	}
	shots := tr.Shots()
	if len(shots) != 1 || shots[0].Kind != Reset || shots[0].N != 2 {
		t.Errorf("shots = %+v", shots)
	}
}

func TestTransportBurst5xx(t *testing.T) {
	ts, served := newBackend(t, "body")
	tr := NewTransport(Plan{Events: []Event{{Kind: Burst5xx, Nth: 1, Count: 3}}}, nil)
	hc := tr.Client()

	for i := 1; i <= 3; i++ {
		resp, err := hc.Get(ts.URL)
		if err != nil {
			t.Fatalf("burst req %d: transport error %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("burst req %d: status %d", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("synthetic 503 carries no Retry-After")
		}
		if !strings.Contains(string(body), `"draining"`) {
			t.Errorf("synthetic 503 body %q is not a typed envelope", body)
		}
	}
	if out, err := get(t, hc, ts.URL); err != nil || out != "body" {
		t.Fatalf("after burst: %q, %v", out, err)
	}
	if *served != 1 {
		t.Errorf("backend saw %d requests during a 3-burst, want 1", *served)
	}
}

func TestTransportPartitionSticky(t *testing.T) {
	ts, served := newBackend(t, "body")
	ts2, served2 := newBackend(t, "other")
	tr := NewTransport(Plan{Events: []Event{{Kind: Partition, Nth: 2}}}, nil)
	hc := tr.Client()

	if _, err := get(t, hc, ts.URL); err != nil {
		t.Fatal(err)
	}
	// Request 2 targets ts: its host is severed, now and forever.
	if _, err := get(t, hc, ts.URL); err == nil {
		t.Fatal("partitioned request succeeded")
	}
	for i := 0; i < 3; i++ {
		if _, err := get(t, hc, ts.URL); err == nil {
			t.Fatal("sticky partition healed")
		}
	}
	// The other host is unaffected.
	if out, err := get(t, hc, ts2.URL); err != nil || out != "other" {
		t.Fatalf("unpartitioned host: %q, %v", out, err)
	}
	if *served != 1 || *served2 != 1 {
		t.Errorf("backends saw %d/%d requests, want 1/1", *served, *served2)
	}
}

func TestTransportTruncateAndCorruptBody(t *testing.T) {
	const body = "0123456789abcdef"
	ts, _ := newBackend(t, body)

	tr := NewTransport(Plan{Events: []Event{{Kind: TruncateBody, Nth: 1}}}, nil)
	out, err := get(t, tr.Client(), ts.URL)
	if err != nil {
		t.Fatalf("truncated response must look complete, got %v", err)
	}
	if out != body[:len(body)/2] {
		t.Errorf("truncated body = %q, want the first half of %q", out, body)
	}

	tr = NewTransport(Plan{Events: []Event{{Kind: CorruptBody, Nth: 1}}}, nil)
	out, err = get(t, tr.Client(), ts.URL)
	if err != nil {
		t.Fatalf("corrupted response must look complete, got %v", err)
	}
	if len(out) != len(body) || out == body {
		t.Errorf("corrupt body = %q: want same length, different bytes", out)
	}

	// With a request body present (the PUT path), corruption hits the
	// request; the echo backend shows what arrived on the wire.
	tr = NewTransport(Plan{Events: []Event{{Kind: CorruptBody, Nth: 1}}}, nil)
	resp, err := tr.Client().Post(ts.URL, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	echoed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(echoed) != len(body) || string(echoed) == body {
		t.Errorf("echoed corrupt request = %q: want same length, different bytes", echoed)
	}
}

func TestTransportDelayClasses(t *testing.T) {
	ts, _ := newBackend(t, "body")
	plan := Plan{Events: []Event{
		{Kind: Delay, Nth: 1, DelayMs: 60},
		{Kind: ConnectJitter, Nth: 2, DelayMs: 60},
		{Kind: SlowBody, Nth: 3, DelayMs: 60},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(plan, nil)
	hc := tr.Client()
	for i := 1; i <= 3; i++ {
		start := time.Now()
		out, err := get(t, hc, ts.URL)
		if err != nil || out != "body" {
			t.Fatalf("delay-class req %d: %q, %v — delay faults must stay latency-only", i, out, err)
		}
		if d := time.Since(start); d < 40*time.Millisecond {
			t.Errorf("req %d finished in %v, want the injected stretch", i, d)
		}
	}
	if shots := tr.Shots(); len(shots) != 3 {
		t.Errorf("shots = %+v, want all three delay events fired", shots)
	}
}

// countingTransport counts the CloseIdleConnections calls that reach it.
type countingTransport struct {
	http.RoundTripper
	closed int
}

func (c *countingTransport) CloseIdleConnections() { c.closed++ }

// TestTransportForwardsCloseIdleConnections: closing a faulted client's
// idle connections must reach the transport that pools them. The
// http.Client only forwards to a Transport that has the method, so
// without it the call is a silent no-op and a teardown that relies on it
// leaves connections behind for http.Server.Shutdown to wait out.
func TestTransportForwardsCloseIdleConnections(t *testing.T) {
	inner := &countingTransport{RoundTripper: http.DefaultTransport}
	NewTransport(Plan{}, inner).Client().CloseIdleConnections()
	if inner.closed != 1 {
		t.Fatalf("inner transport saw %d CloseIdleConnections calls, want 1", inner.closed)
	}
}
