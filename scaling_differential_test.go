package hfstream_test

// The N-core extension of the differential battery: over two IR kernels
// x {2,3,4,6,8} cores x the k-stage and parallel-stage design points, every
// way of producing a metrics snapshot must be byte-identical —
//
//	(a) serial vs parallel experiment runner,
//	(b) fast-forwarding kernel vs per-cycle kernel,
//	(c) direct library API vs a serve/ HTTP round trip,
//
// mirroring differential_test.go for the machines the dual-core battery
// cannot reach: 3- to 8-stage DSWP chains and the PS-DSWP replicated
// worker shape, each with auto-derived queue routes. Determinism is the
// repo's load-bearing invariant (memoized oracles, golden CI,
// content-addressed serving); these rows pin it for N-core topologies.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"hfstream"
	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/serve"
	"hfstream/serve/client"
)

// scaleBenches are IR kernels whose dependence structure fills eight
// pipeline stages and replicates for parallel-stage workers.
var scaleBenches = []string{"fft2", "equake"}

// scaleConfigs enumerates the N-core grid along the scaling study's axis
// (exp.ScalingCores): each chain design at every count from the paper's 2
// up, plus the parallel-stage point from 3 cores (its minimum: two
// workers and a merger).
func scaleConfigs() []design.Config {
	var out []design.Config
	for _, k := range exp.ScalingCores {
		if k >= 2 {
			out = append(out, design.SyncOptiSCQ64Config().WithCores(k), design.HeavyWTConfig().WithCores(k))
		}
		if k >= 3 {
			out = append(out, design.MPMCQ64Config().WithCores(k))
		}
	}
	return out
}

func scaleJobs() []exp.Job {
	var jobs []exp.Job
	for _, bench := range scaleBenches {
		for _, cfg := range scaleConfigs() {
			jobs = append(jobs, exp.Job{Bench: bench, Config: cfg})
		}
	}
	return jobs
}

// scaleReference runs the grid on a serial runner and returns annotated
// snapshots keyed by job name.
func scaleReference(t *testing.T) map[string][]byte {
	t.Helper()
	results := (&exp.Runner{Workers: 1}).Run(context.Background(), scaleJobs())
	if err := exp.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	ref := make(map[string][]byte, len(results))
	for _, r := range results {
		ref[r.Job.Name()] = annotatedJSON(t, r.Res, r.Job.Bench, jobLabel(r.Job))
	}
	return ref
}

func TestScalingDifferentialSerialVsParallelRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("N-core grid")
	}
	ref := scaleReference(t)
	results := (&exp.Runner{Workers: 4}).Run(context.Background(), scaleJobs())
	if err := exp.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		got := annotatedJSON(t, r.Res, r.Job.Bench, jobLabel(r.Job))
		if !bytes.Equal(got, ref[r.Job.Name()]) {
			t.Errorf("%s: parallel runner snapshot differs from serial", r.Job.Name())
		}
	}
}

func TestScalingDifferentialFastForwardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("N-core grid")
	}
	ref := scaleReference(t)
	ctx := context.Background()
	for _, bench := range scaleBenches {
		b, err := hfstream.BenchmarkByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range scaleConfigs() {
			d, err := hfstream.DesignByName(cfg.Name())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := hfstream.RunCtx(ctx, b, d,
				hfstream.WithMetrics(&buf), hfstream.WithoutFastForward()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), ref[bench+"/"+cfg.Name()]) {
				t.Errorf("%s/%s: fast-forward-off snapshot differs", bench, cfg.Name())
			}
		}
	}
}

func TestScalingDifferentialServeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("N-core grid")
	}
	ref := scaleReference(t)
	ts := httptest.NewServer(serve.New(serve.Config{Workers: 2}).Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	for _, bench := range scaleBenches {
		for _, cfg := range scaleConfigs() {
			name := bench + "/" + cfg.Name()
			spec := hfstream.Spec{Bench: bench, Design: cfg.Name()}
			cold := mustRun(t, cl, spec)
			if cold.Cache != "miss" {
				t.Fatalf("%s cold: cache=%q", name, cold.Cache)
			}
			if !bytes.Equal(cold.Body, ref[name]) {
				t.Errorf("%s: served body differs from direct API snapshot", name)
			}
			hot := mustRun(t, cl, spec)
			if hot.Cache != "hit" {
				t.Fatalf("%s hot: cache=%q", name, hot.Cache)
			}
			if !bytes.Equal(hot.Body, cold.Body) {
				t.Errorf("%s: cached body differs from cold body", name)
			}
		}
	}
}

// Every grid cell must resolve through the public design registry — the
// _<k>CORE names round-trip — and a staged Spec must refuse to stack on
// a multi-core design name.
func TestScalingDifferentialDesignNames(t *testing.T) {
	for _, cfg := range scaleConfigs() {
		d, err := hfstream.DesignByName(cfg.Name())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if d.Name() != cfg.Name() {
			t.Errorf("DesignByName(%q).Name() = %q", cfg.Name(), d.Name())
		}
	}
	if _, err := hfstream.DesignByName("HEAVYWT_2CORE"); err == nil {
		t.Error("_2CORE alias accepted; the unsuffixed name is the dual-core machine")
	}
	if _, err := hfstream.DesignByName("HEAVYWT_9CORE"); err == nil {
		t.Error("core count past the custom-machine cap accepted")
	}
}
