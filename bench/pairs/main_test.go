package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/render_pr21.md")

// Two metrics with BENCHMARK.json's shapes: a latency that may rise 25%
// and a throughput that may fall 20%.
var testMetrics = []metric{
	{Name: "op_p50_yt", Unit: "yt", Better: "lower", Bound: 0.25},
	{Name: "ops_per_kyt", Unit: "ops/kyt", Better: "higher", Bound: 0.2},
}

// side is one synthetic run: 100 operations attempted, the given number
// failed, and the two metrics.
func side(failed int, p50, ops float64) Run {
	return Run{Attempted: 100, Failed: failed,
		Metrics: map[string]float64{"op_p50_yt": p50, "ops_per_kyt": ops}}
}

// pairsOf builds n identical pairs.
func pairsOf(n int, base, change Run) []Pair {
	var ps []Pair
	for i := 0; i < n; i++ {
		ps = append(ps, Pair{First: "base", Base: base, Change: change})
	}
	return ps
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs []Pair
		// fails names a substring of each expected regression line, in
		// order; empty means the gate passes.
		fails []string
	}{
		{"identical", pairsOf(3, side(0, 50, 20), side(0, 50, 20)), nil},
		{"better on both", pairsOf(3, side(0, 50, 20), side(0, 40, 25)), nil},
		{"worse within the bounds", pairsOf(3, side(0, 50, 20), side(0, 60, 17)), nil},
		{"latency worse beyond its bound", pairsOf(3, side(0, 50, 20), side(0, 63, 20)), []string{"op_p50_yt"}},
		{"throughput worse beyond its bound", pairsOf(3, side(0, 50, 20), side(0, 50, 15.9)), []string{"ops_per_kyt"}},
		{"both worse beyond their bounds", pairsOf(3, side(0, 50, 20), side(0, 70, 10)), []string{"op_p50_yt", "ops_per_kyt"}},
		{"times better but fails more", pairsOf(3, side(1, 50, 20), side(2, 40, 25)), []string{"failed share"}},
		{"fails fewer", pairsOf(3, side(2, 50, 20), side(1, 50, 20)), nil},
		{"the median decides, not one bad pair", append(pairsOf(2, side(0, 50, 20), side(0, 50, 20)),
			Pair{Base: side(0, 50, 20), Change: side(0, 500, 2)}), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &Workload{Pairs: tc.pairs}
			if err := w.recompute(testMetrics); err != nil {
				t.Fatal(err)
			}
			got := w.regressions()
			if len(got) != len(tc.fails) {
				t.Fatalf("regressions = %q, want %d matching %q", got, len(tc.fails), tc.fails)
			}
			for i, want := range tc.fails {
				if !strings.Contains(got[i], want) {
					t.Errorf("regression %d = %q, want it to name %q", i, got[i], want)
				}
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	w := &Workload{Pairs: []Pair{
		{Base: side(0, 50, 20), Change: side(0, 40, 20)}, // p50 won, ops tied
		{Base: side(1, 52, 22), Change: side(0, 60, 30)}, // p50 lost, ops won
		{Base: side(2, 54, 24), Change: side(3, 44, 18)}, // p50 won, ops lost
	}}
	if err := w.recompute(testMetrics); err != nil {
		t.Fatal(err)
	}
	p50, ops := w.Summary[0], w.Summary[1]
	if p50.Wins != 2 || p50.Losses != 1 || p50.Ties != 0 {
		t.Errorf("op_p50_yt won/lost/tied = %d/%d/%d, want 2/1/0", p50.Wins, p50.Losses, p50.Ties)
	}
	if ops.Wins != 1 || ops.Losses != 1 || ops.Ties != 1 {
		t.Errorf("ops_per_kyt won/lost/tied = %d/%d/%d, want 1/1/1", ops.Wins, ops.Losses, ops.Ties)
	}
	if p50.Base != (Spread{Q1: 51, Median: 52, Q3: 53}) || p50.Change != (Spread{Q1: 42, Median: 44, Q3: 52}) {
		t.Errorf("op_p50_yt spreads = %+v, %+v", p50.Base, p50.Change)
	}
	if p50.Bound != 0.25 || ops.Bound != 0.2 {
		t.Errorf("bounds = %v, %v: not carried from the metric declarations", p50.Bound, ops.Bound)
	}
	if w.BaseFailed != 0.01 || w.ChangeFailed != 0.01 {
		t.Errorf("failed shares = %v, %v, want 3 of 300 on each side", w.BaseFailed, w.ChangeFailed)
	}
}

func TestSummarizeMissingMetric(t *testing.T) {
	partial := Run{Attempted: 100, Metrics: map[string]float64{"op_p50_yt": 50}}
	for name, p := range map[string]Pair{
		"missing on the change": {Base: side(0, 50, 20), Change: partial},
		"missing on the base":   {Base: partial, Change: side(0, 50, 20)},
	} {
		w := &Workload{Pairs: []Pair{p}}
		err := w.recompute(testMetrics)
		if err == nil || !strings.Contains(err.Error(), "ops_per_kyt") {
			t.Errorf("%s: err = %v, want one naming ops_per_kyt", name, err)
		}
	}
}

// TestRenderGolden pins -render on a checked-in report: BENCH_PR21.json's
// tables, whose matrix2 and serve_hot rows EXPERIMENTS.md "BENCH_PR21"
// typed by hand before the flag existed.
func TestRenderGolden(t *testing.T) {
	var got bytes.Buffer
	if err := renderFile(filepath.Join("..", "..", "BENCH_PR21.json"), &got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "render_pr21.md")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-render BENCH_PR21.json differs from %s (go test ./bench/pairs -update rewrites it):\n%s", golden, got.String())
	}
	for _, row := range []string{
		"| `ops_per_kyt` | ops/kyt | 19.96 [19.82, 20.2] | 21.9 [21.77, 22.08] | 1.097 | 10/0/0 |",
		"| `alloc_kb_per_op` | KiB | 1677 [1677, 1677] | 130.5 [130.3, 131.2] | 0.0778 | 10/0/0 |",
	} {
		if !strings.Contains(got.String(), row) {
			t.Errorf("-render lost the matrix2 row EXPERIMENTS.md quotes: %s", row)
		}
	}
}
