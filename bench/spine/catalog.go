package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"text/tabwriter"
)

// The catalog is the one list of workloads and metrics. BENCHMARK.json at
// the repository root repeats it for the driver; catalog_test.go fails
// when the two differ, and so does every measuring run (checkBenchmarkFile),
// because the root module's tests do not enter this module.

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricInfo struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

var workloadCatalog = []workloadInfo{
	{"matrix2", "the paper's 9 benchmarks x 7 dual-core designs with fast-forward on: the evaluation hfexp users run, where sim.Run should do most of the work"},
	{"ncore", "7 kernels x 3 design families x 3, 4 and 6 cores: k-core cycles, MPMC lanes and the DSWP partitioner as a first-class cost (p95 is partition-bound)"},
	{"referee", "4 benchmarks x 7 designs with fast-forward off and with a trace sink: the second path of sim.Run that tracing and every CI differential pay for"},
	{"serve_hot", "one server, 72 pre-warmed cells, 2 clients drawing Zipf(1.1) keys: the kernel does nothing, so it bypasses kernel changes and exercises decode, key, cache and encode"},
	{"serve_mix", "epochs of a fresh server over 114 cells, one cold op then three hits per key: p50 is the serve layer, p95 the full stack from queue wait to cache put"},
	{"cluster3", "epochs of a fresh 3-replica cluster, per key a miss at the owner, a peer fill at a non-owner and a local hit: p50 is the peer-fill path"},
}

// endToEnd lists the metrics every workload reports and the driver gates.
// Bounds are shares of the parent's median. The timing bounds are three
// times the widest quartile spread seen over ten seeds in a noisy phase of
// the 2-vCPU reference box, whose neighbours steal up to a fifth of its
// time for minutes on end, and above the largest shift of a median seen
// between two phases (README.md has the tables); the counts repeat to a
// fraction of a percent and are gated tightly.
var endToEnd = []metricInfo{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_yt", "yt", "lower", 0.25},
	{"op_p95_yt", "yt", "lower", 0.25},
	{"ops_per_kyt", "ops/kyt", "higher", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.03},
	{"heap_live_mb", "MiB", "lower", 0.05},
}

// extraEndToEnd are end-to-end figures that are not defined on every
// workload or are zero when all is well, which BENCHMARK.json cannot
// carry as gated metrics. The full report prints them where defined;
// fail_share also travels as the failed and attempted fields of every run
// and paper_err_pct as exp.paper_err_pct among the per-layer metrics.
var extraEndToEnd = []metricInfo{
	{"sim_cycles_per_yt", "cycles/yt", "higher", 0.20},
	{"fail_share", "ratio", "lower", 0},
	{"paper_err_pct", "%", "lower", 0.1},
}

// allEndToEnd is what the full report and -selfcheck print.
var allEndToEnd = flatten(endToEnd, extraEndToEnd)

func lo(unit string, names ...string) []metricInfo { return mk(unit, "lower", names) }
func hi(unit string, names ...string) []metricInfo { return mk(unit, "higher", names) }

func mk(unit, better string, names []string) []metricInfo {
	out := make([]metricInfo, len(names))
	for i, n := range names {
		out[i] = metricInfo{Name: n, Unit: unit, Better: better}
	}
	return out
}

// modelCounts are the modelled machine's own counters, summed over one
// pass of a workload's cells. They are a property of the simulated design,
// not of the host: a change that only speeds the simulator up must leave
// every one of them, and model_digest, identical.
var modelCounts = flatten(
	lo("cycles", "sim.cycles"),
	hi("count", "core.issued"),
	hi("ipc", "core.ipc"),
	lo("cycles", "core.stall_cycles", "core.stall.operand-latency", "core.stall.memory-token",
		"core.stall.queue-full", "core.stall.queue-empty", "core.stall.ozq-full"),
	lo("count", "bus.grants", "bus.beats"),
	lo("cycles", "bus.arb_wait"),
	hi("count", "memsys.l2_hits"),
	lo("count", "memsys.l2_misses"),
	hi("count", "memsys.l3_hits"),
	lo("count", "memsys.l3_misses", "memsys.mem_accesses"),
	hi("count", "memsys.wr_fwds"),
	lo("count", "memsys.probes"),
	hi("count", "memsys.sc_hits"),
	lo("count", "memsys.recirc_retries"),
	hi("count", "queue.produces", "queue.consumes"),
	lo("count", "queue.sa_full_stalls", "queue.sa_empty_stalls"),
	hi("items", "queue.occ_mean"),
)

// perLayer lists every per-layer metric of a traced run. A traced run of
// any workload prints all of them; one that belongs to a layer the
// workload does not enter, or to a probe that runs in another workload's
// traced run, reads 0 (README.md says which is which).
var perLayer = flatten(
	lo("yt", "workloads.build_yt"),
	lo("yt", "dswp.partition_yt"),
	lo("ratio", "dswp.partition_share"),
	lo("count", "dswp.allocs_per_partition"),
	lo("yt", "dswp.partition_fft2_k2_yt", "dswp.partition_fft2_k4_yt",
		"dswp.partition_fft2_k6_yt", "dswp.partition_fft2_k8_yt"),
	lo("yt", "lower.lower_yt", "mem.image_yt"),
	lo("ns", "mem.read8_ns", "mem.write8_ns"),
	lo("yt", "sim.run_yt"),
	hi("ratio", "sim.run_share"),
	hi("cycles/yt", "sim.cycles_per_yt", "sim.cycles_per_yt.swq", "sim.cycles_per_yt.syncopti",
		"sim.cycles_per_yt.heavywt", "sim.cycles_per_yt.mpmc", "sim.core_cycles_per_yt"),
	lo("yt", "sim.metrics_json_yt"),
	lo("count", "sim.allocs_per_run"),
	lo("KiB", "sim.alloc_kb_per_run"),
	modelCounts,
	lo("ns", "evq.push_pop_ns", "core.tick_ns", "core.tick_stalled_ns", "bus.submit_grant_ns",
		"cache.lookup_hit_ns", "cache.insert_evict_ns", "cache.insert_range_ns_per_line",
		"queue.sa_spsc_ns", "queue.sa_mpmc_ns", "memsys.fabric_tick_idle_ns", "trace.add_ns",
		"ring.spsc_push_pop_ns", "ring.spsc_handoff_ns", "exp.pool_submit_ns", "exp.pool_chan_ref_ns"),
	lo("yt", "exp.check_yt", "interp.oracle_cold_yt"),
	hi("ratio", "exp.runner_speedup_j2", "exp.runner_eff_j2"),
	lo("yt", "hfstream.runctx_yt", "hfstream.runctx_overhead_yt"),
	lo("ns", "hfstream.spec_key_ns", "hfstream.design_by_name_ns"),
	lo("ratio", "exp.fig7_syncopti_norm", "exp.fig7_memopti_norm", "exp.fig7_existing_norm",
		"exp.fig12_scq64_norm"),
	lo("%", "exp.paper_err_pct"),
	lo("yt", "serve.hit_yt", "serve.cold_yt", "serve.stream_cold_yt", "serve.coalesced_yt",
		"serve.miss_overhead_yt", "client.overhead_yt", "serve.sweep_cell_yt", "serve.resweep_cell_yt",
		"serve.http_loopback_rtt_yt"),
	lo("KiB", "serve.body_kb_median"),
	lo("ns/KiB", "serve.digest_ns_per_kb"),
	hi("count", "serve.requests"),
	lo("count", "serve.runs"),
	hi("count", "serve.cache_hits"),
	lo("count", "serve.cache_misses", "serve.coalesced", "serve.shed", "serve.failures"),
	hi("ratio", "serve.hit_share"),
	lo("yt", "cluster.peer_fill_yt", "cluster.store_yt"),
	lo("ns", "cluster.ring_owners_ns"),
	hi("count", "cluster.fills", "cluster.peer_hits"),
	lo("count", "cluster.peer_misses"),
	hi("count", "cluster.stores"),
	lo("count", "cluster.store_dropped", "cluster.breaker_opens", "cluster.integrity_drops"),
	hi("ratio", "cluster.peer_hit_share"),
	lo("ratio", "cluster.sims_per_key"),
	lo("us", "harness.ytick_us"),
	lo("%", "harness.ytick_iqr_pct"),
	lo("s", "harness.wall_s"),
	hi("count", "harness.ops"),
	lo("yt", "harness.op_ptail_yt"),
	hi("%", "harness.op_ptail_pct"),
	lo("count", "harness.gc_cycles"),
	lo("ms", "harness.gc_pause_ms"),
	lo("MiB", "harness.peak_rss_mb"),
	lo("%", "harness.trace_overhead_pct"),
	hi("%", "harness.span_coverage_pct"),
)

func flatten(groups ...[]metricInfo) []metricInfo {
	var out []metricInfo
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func workloadByName(name string) (workloadInfo, bool) {
	for _, w := range workloadCatalog {
		if w.Name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// printList renders the metric, workload and bound table of -list.
func printList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloadCatalog {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END METRIC\tUNIT\tBETTER\tBOUND\tWORKLOADS")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\tall\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	for _, m := range extraEndToEnd {
		where, bound := "all (the failed/attempted fields of a run)", "0 absolute"
		switch m.Name {
		case "sim_cycles_per_yt":
			where, bound = "all but serve_hot (per-layer: sim.cycles_per_yt)", fmt.Sprintf("%.0f%%", m.Bound*100)
		case "paper_err_pct":
			where, bound = "matrix2 (per-layer: exp.paper_err_pct)", "+0.1 point"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, bound, where)
	}
	fmt.Fprintln(tw, "\nPER-LAYER METRIC\tUNIT\tBETTER")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Name, m.Unit, m.Better)
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d workloads, %d gated end-to-end metrics, %d per-layer metrics, %d s per run; exact counts: %s\n",
		len(workloadCatalog), len(endToEnd), len(perLayer), runSeconds, strings.Join(names(modelCounts), " "))
}

func names(ms []metricInfo) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []benchMetric  `json:"end_to_end"`
	PerLayer   []benchMetric  `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkPath is BENCHMARK.json seen from bench/spine, where run.sh,
// `go run .` and `go test` all run.
const benchmarkPath = "../../BENCHMARK.json"

// benchmarkJSON renders the catalog as the bytes of BENCHMARK.json.
func benchmarkJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/spine/run.sh"},
		Paths:      []string{"bench/spine"},
		RunSeconds: runSeconds,
		Workloads:  workloadCatalog,
	}
	for _, m := range endToEnd {
		bound := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{m.Name, m.Unit, m.Better, nil})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// checkBenchmarkFile fails when BENCHMARK.json differs from the catalog.
// Away from bench/spine there is no file to compare with, and no driver
// reading it either.
func checkBenchmarkFile() error {
	got, err := os.ReadFile(benchmarkPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		return fmt.Errorf("%s differs from the catalog: regenerate it with SPINE_WRITE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSONMatchesCatalog", benchmarkPath)
	}
	return nil
}
