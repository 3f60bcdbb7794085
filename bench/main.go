// Command bench measures the simulation kernel's raw performance over the
// paper's nine-benchmark × seven-design matrix and writes a JSON report
// (wall time, simulated cycles per second, allocations per run). It is the
// harness behind `make bench` and the BENCH_PR*.json trajectory files.
//
// Every run goes through the same exp.RunBenchmarkOpts path the figures use,
// including oracle output verification, so the numbers reflect the real
// hot path. The functional-interpreter oracle is warmed before timing so
// its one-off cost never pollutes a measurement.
//
// Usage:
//
//	go run ./bench                         # full matrix -> BENCH_PR6.json
//	go run ./bench -benches bzip2,adpcmdec -reps 1 -out -
//	go run ./bench -baseline old.json      # adds speedup-vs-baseline fields
//	go run ./bench -baseline old.json -maxregress 25   # CI regression gate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// Pair is one (benchmark, design) measurement: the best of -reps runs by
// wall time, with that run's allocation deltas.
type Pair struct {
	Benchmark    string  `json:"benchmark"`
	Design       string  `json:"design"`
	Cycles       uint64  `json:"cycles"`
	WallNs       int64   `json:"wall_ns"`
	CyclesPerSec float64 `json:"sim_cycles_per_sec"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
}

// Totals aggregates the matrix.
type Totals struct {
	WallNs       int64   `json:"wall_ns"`
	Cycles       uint64  `json:"cycles"`
	CyclesPerSec float64 `json:"sim_cycles_per_sec"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
}

// Report is the BENCH_PR*.json schema.
type Report struct {
	Label       string `json:"label"`
	GoVersion   string `json:"go_version"`
	FastForward bool   `json:"fast_forward"`
	Reps        int    `json:"reps"`
	Pairs       []Pair `json:"pairs"`
	Totals      Totals `json:"totals"`

	// Set only when -baseline was given: the baseline's label/totals and
	// the speedups of this report over it.
	Baseline           *Report `json:"baseline,omitempty"`
	SpeedupWallGeomean float64 `json:"speedup_wall_geomean,omitempty"`
	SpeedupWallTotal   float64 `json:"speedup_wall_total,omitempty"`
	AllocsRatio        float64 `json:"allocs_ratio,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_PR6.json", "output file (\"-\" for stdout)")
		benches    = flag.String("benches", "", "comma-separated benchmark subset (default: all nine)")
		reps       = flag.Int("reps", 3, "repetitions per (benchmark, design) pair; best wall time wins")
		label      = flag.String("label", "current", "label recorded in the report")
		baseline   = flag.String("baseline", "", "previous report to compute speedups against")
		maxregress = flag.Float64("maxregress", 0, "with -baseline: exit nonzero if geomean wall time regressed by more than this percentage")
	)
	flag.Parse()

	list, err := selectBenchmarks(*benches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep, err := measure(*label, list, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		compare(rep, base)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: %d pairs, %.2fs wall, %.2f Mcycles/s, %d allocs\n",
		len(rep.Pairs), float64(rep.Totals.WallNs)/1e9,
		rep.Totals.CyclesPerSec/1e6, rep.Totals.AllocsPerOp)
	if rep.SpeedupWallGeomean > 0 {
		fmt.Fprintf(os.Stderr, "bench: speedup vs %q: %.2fx geomean, %.2fx total wall, %.2fx allocs\n",
			rep.Baseline.Label, rep.SpeedupWallGeomean, rep.SpeedupWallTotal, rep.AllocsRatio)
	}
	if *maxregress > 0 && rep.Baseline != nil {
		// A speedup of 1/(1+x/100) means wall time grew by x percent.
		floor := 1 / (1 + *maxregress/100)
		if rep.SpeedupWallGeomean < floor {
			fmt.Fprintf(os.Stderr,
				"bench: FAIL: geomean wall time regressed %.0f%% vs %q (speedup %.2fx, floor %.2fx at -maxregress %.0f)\n",
				(1/rep.SpeedupWallGeomean-1)*100, rep.Baseline.Label,
				rep.SpeedupWallGeomean, floor, *maxregress)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: regression gate ok (speedup %.2fx >= floor %.2fx)\n",
			rep.SpeedupWallGeomean, floor)
	}
}

func selectBenchmarks(csv string) ([]*workloads.Benchmark, error) {
	if csv == "" {
		return workloads.All(), nil
	}
	var list []*workloads.Benchmark
	for _, name := range strings.Split(csv, ",") {
		b, err := workloads.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		list = append(list, b)
	}
	return list, nil
}

func measure(label string, list []*workloads.Benchmark, reps int) (*Report, error) {
	if reps < 1 {
		reps = 1
	}
	rep := &Report{
		Label:       label,
		GoVersion:   runtime.Version(),
		FastForward: os.Getenv("HFSTREAM_NO_FASTFORWARD") == "",
		Reps:        reps,
	}
	// Warm the oracle cache so the one-time interpreter run stays out of
	// the timings.
	for _, b := range list {
		if _, err := exp.Expected(b); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	for _, b := range list {
		for _, cfg := range design.StandardConfigs() {
			best := Pair{Benchmark: b.Name, Design: cfg.Name()}
			for r := 0; r < reps; r++ {
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				res, err := exp.RunBenchmarkOpts(context.Background(), b, cfg, exp.RunOpts{})
				wall := time.Since(start)
				runtime.ReadMemStats(&ms1)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", b.Name, cfg.Name(), err)
				}
				if r == 0 || wall.Nanoseconds() < best.WallNs {
					best.Cycles = res.Cycles
					best.WallNs = wall.Nanoseconds()
					best.AllocsPerOp = ms1.Mallocs - ms0.Mallocs
					best.BytesPerOp = ms1.TotalAlloc - ms0.TotalAlloc
				}
			}
			best.CyclesPerSec = float64(best.Cycles) / (float64(best.WallNs) / 1e9)
			rep.Pairs = append(rep.Pairs, best)
			rep.Totals.WallNs += best.WallNs
			rep.Totals.Cycles += best.Cycles
			rep.Totals.AllocsPerOp += best.AllocsPerOp
		}
	}
	rep.Totals.CyclesPerSec = float64(rep.Totals.Cycles) / (float64(rep.Totals.WallNs) / 1e9)
	return rep, nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare fills the speedup fields of rep from a baseline report, matching
// pairs by (benchmark, design) name.
func compare(rep, base *Report) {
	baseBy := make(map[string]Pair, len(base.Pairs))
	for _, p := range base.Pairs {
		baseBy[p.Benchmark+"/"+p.Design] = p
	}
	var ratios []float64
	var baseWall, curWall int64
	var baseAllocs, curAllocs uint64
	for _, p := range rep.Pairs {
		if bp, ok := baseBy[p.Benchmark+"/"+p.Design]; ok && p.WallNs > 0 {
			ratios = append(ratios, float64(bp.WallNs)/float64(p.WallNs))
			baseWall += bp.WallNs
			curWall += p.WallNs
			baseAllocs += bp.AllocsPerOp
			curAllocs += p.AllocsPerOp
		}
	}
	base.Baseline = nil // never nest more than one level
	rep.Baseline = base
	rep.SpeedupWallGeomean = stats.Geomean(ratios)
	// Totals over matched pairs only, so a subset run (-benches) compares
	// like against like instead of a subset against the full matrix.
	if curWall > 0 {
		rep.SpeedupWallTotal = float64(baseWall) / float64(curWall)
	}
	if curAllocs > 0 {
		rep.AllocsRatio = float64(baseAllocs) / float64(curAllocs)
	}
}
