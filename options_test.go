package hfstream

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"hfstream/trace"
)

func TestRunCtxOptions(t *testing.T) {
	b, err := BenchmarkByName("adpcmdec")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	var events []ProgressEvent
	sink := trace.NewSink()
	res, err := RunCtx(context.Background(), b, HeavyWT,
		WithMetrics(&buf),
		WithTrace(sink),
		WithProgress(func(e ProgressEvent) { events = append(events, e) }),
		WithProgressInterval(10_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}

	// The metrics stream is one self-describing JSON document.
	var m struct {
		Benchmark string `json:"benchmark"`
		Design    string `json:"design"`
		Cycles    uint64 `json:"cycles"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("metrics are not JSON: %v", err)
	}
	if m.Benchmark != "adpcmdec" || m.Design != "HEAVYWT" {
		t.Errorf("metrics labeled (%s, %s)", m.Benchmark, m.Design)
	}
	if m.Cycles != res.Cycles {
		t.Errorf("metrics cycles %d != result cycles %d", m.Cycles, res.Cycles)
	}

	if len(sink.Events()) == 0 {
		t.Error("trace sink captured no events")
	}
	if len(events) == 0 {
		t.Error("progress callback never fired")
	}
	for i, e := range events {
		if e.Cycle%10_000 != 0 || e.Cycle == 0 {
			t.Fatalf("progress event %d at cycle %d, want multiples of 10000", i, e.Cycle)
		}
	}

	// WithProgress(nil) turns progress off, as the last option given.
	if _, err := RunCtx(context.Background(), b, HeavyWT,
		WithProgress(func(ProgressEvent) { t.Error("replaced progress callback fired") }),
		WithProgress(nil),
		WithProgressInterval(1_000),
	); err != nil {
		t.Fatal(err)
	}
}

func TestRunCtxCanceled(t *testing.T) {
	b, err := BenchmarkByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, b, SyncOpti); err == nil {
		t.Error("canceled RunCtx did not fail")
	}
	if _, err := RunSingleThreadedCtx(ctx, b); err == nil {
		t.Error("canceled RunSingleThreadedCtx did not fail")
	}
}
