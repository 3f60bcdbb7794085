package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json repeats the catalog for the driver; the two must not
// drift apart. SPINE_WRITE_BENCHMARK_JSON=1 rewrites the file from the
// catalog instead of comparing.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want := benchmarkJSON()
	if os.Getenv("SPINE_WRITE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(benchmarkPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalog (-list); rerun with SPINE_WRITE_BENCHMARK_JSON=1\n--- file\n%s\n--- catalog\n%s", got, want)
	}
}

// The limits the driver refuses a benchmark file for.
func TestCatalogWithinContractLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloadCatalog); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range workloadCatalog {
		check("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	hasSetup := false
	for _, m := range append(append([]metricInfo{}, endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1 to 60", runSeconds)
	}
	for _, m := range modelCounts {
		if !seen[m.Name] {
			t.Errorf("exact count %s is not a per-layer metric", m.Name)
		}
	}
}
