package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hfstream"
	"hfstream/serve"
	"hfstream/serve/client"
)

// flakyHandler answers failCode/failBody for the first failN requests,
// then delegates to ok.
func flakyHandler(failN int, failCode int, failBody string, hdr map[string]string, ok http.Handler) (http.Handler, *int) {
	n := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if n <= failN {
			for k, v := range hdr {
				w.Header().Set(k, v)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(failCode)
			io.WriteString(w, failBody)
			return
		}
		ok.ServeHTTP(w, r)
	}), &n
}

const queueFullBody = `{"error":{"code":"queue_full","message":"admission queue full"}}` + "\n"

// TestClientRetriesQueueFull: two 429s then success — the retry layer
// absorbs the shed requests, and Retries() accounts for them.
func TestClientRetriesQueueFull(t *testing.T) {
	okSrv := serve.New(serve.Config{Workers: 1})
	h, attempts := flakyHandler(2, http.StatusTooManyRequests, queueFullBody,
		map[string]string{"Retry-After": "1"}, okSrv.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	var waits []time.Duration
	cl := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 4, Seed: 42,
		Sleep: func(d time.Duration) { waits = append(waits, d) },
	}))
	res, err := cl.Run(context.Background(), hfstream.Spec{Bench: "bzip2", Design: "EXISTING"})
	if err != nil {
		t.Fatalf("run through two 429s: %v", err)
	}
	if len(res.Body) == 0 || res.Cache != "miss" {
		t.Fatalf("retried run result: cache=%q len=%d", res.Cache, len(res.Body))
	}
	if *attempts != 3 || cl.Retries() != 2 {
		t.Fatalf("attempts=%d retries=%d, want 3/2", *attempts, cl.Retries())
	}
	// Retry-After: 1 floors every backoff below one second.
	for i, w := range waits {
		if w < time.Second {
			t.Errorf("wait %d = %v, shorter than the server's Retry-After hint", i, w)
		}
	}
}

// TestClientRetryHonorsRetryAfter: a draining replica's Retry-After: 2
// stretches the wait past what exponential backoff alone would pick.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	okSrv := serve.New(serve.Config{Workers: 1})
	body := `{"error":{"code":"draining","message":"server is draining"}}` + "\n"
	h, _ := flakyHandler(1, http.StatusServiceUnavailable, body,
		map[string]string{"Retry-After": "2"}, okSrv.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	var waits []time.Duration
	cl := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 2, Seed: 1,
		Sleep: func(d time.Duration) { waits = append(waits, d) },
	}))
	if _, err := cl.Metrics(context.Background()); err != nil {
		t.Fatalf("metrics through a drain blip: %v", err)
	}
	if len(waits) != 1 || waits[0] < 2*time.Second {
		t.Fatalf("waits = %v, want one wait ≥ 2s (the Retry-After floor)", waits)
	}
}

// TestClientNoRetryOnBadRequest: deterministic failures burn exactly
// one attempt — retrying a rejected spec would fail identically.
func TestClientNoRetryOnBadRequest(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slept := 0
	cl := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 5, Sleep: func(time.Duration) { slept++ },
	}))
	_, err := cl.Run(context.Background(), hfstream.Spec{Bench: "no-such-bench"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Detail.Code != "bad_request" {
		t.Fatalf("err = %v", err)
	}
	if slept != 0 || cl.Retries() != 0 {
		t.Fatalf("bad_request was retried: slept=%d retries=%d", slept, cl.Retries())
	}
}

// TestClientRetryAttemptsBounded: a server that never recovers costs
// exactly MaxAttempts requests, then the typed error surfaces.
func TestClientRetryAttemptsBounded(t *testing.T) {
	h, attempts := flakyHandler(1_000_000, http.StatusTooManyRequests, queueFullBody, nil,
		http.NotFoundHandler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	cl := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 3, Sleep: func(time.Duration) {},
	}))
	_, err := cl.Metrics(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Detail.Code != "queue_full" {
		t.Fatalf("exhausted retries: err = %v", err)
	}
	if *attempts != 3 || cl.Retries() != 2 {
		t.Fatalf("attempts=%d retries=%d, want 3/2", *attempts, cl.Retries())
	}
}

// TestRetryableTable pins the one retryability table.
func TestRetryableTable(t *testing.T) {
	api := func(status int, code string) error {
		return &client.APIError{Status: status, Detail: serve.ErrorDetail{Code: code}}
	}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"ctx-canceled", context.Canceled, false},
		{"ctx-deadline", fmt.Errorf("wrapped: %w", context.DeadlineExceeded), false},
		{"queue_full", api(429, "queue_full"), true},
		{"draining", api(503, "draining"), true},
		{"internal", api(500, "internal"), true},
		{"bad_request", api(400, "bad_request"), false},
		{"not_cached", api(404, "not_cached"), false},
		{"deadlock", api(422, "deadlock"), false},
		{"run_failed", api(500, "run_failed"), false},
		{"canceled", api(499, "canceled"), false},
		{"timeout", api(504, "timeout"), false},
		{"integrity", api(400, "integrity"), false},
		{"unknown-code-429", api(429, "rate_limited"), true},
		{"unknown-code-502", api(502, "upstream"), true},
		{"unknown-code-501", api(501, "not_impl"), false},
		{"unknown-code-403", api(403, "forbidden"), false},
		{"integrity-error", &client.IntegrityError{Key: "k"}, true},
		{"too-large", &client.TooLargeError{Length: 1 << 40}, false},
		{"short-body", io.ErrUnexpectedEOF, true},
		{"transport", errors.New("connection reset by peer"), true},
	}
	for _, c := range cases {
		if got := client.Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestClientRetryCtxCancel: a dead context stops the loop even when the
// error class is retryable.
func TestClientRetryCtxCancel(t *testing.T) {
	h, attempts := flakyHandler(1_000_000, http.StatusTooManyRequests, queueFullBody, nil,
		http.NotFoundHandler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cl := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10, Sleep: func(time.Duration) { cancel() },
	}))
	_, err := cl.Metrics(ctx)
	if err == nil {
		t.Fatal("metrics succeeded against a 429-only server")
	}
	if *attempts > 2 {
		t.Fatalf("canceled retry loop made %d attempts", *attempts)
	}
}
