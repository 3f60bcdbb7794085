package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// The ablation studies cover design-space axes the paper discusses but
// does not plot: queue layout density (§4.3 mentions QLU 1 results were
// omitted), bus pipelining (§3.3), register-mapped queues (§3.1.3), the
// centralized dedicated store (§3.5.2), stream-cache sizing (§5) and the
// SYNCOPTI probe timeout (§4.2), and DSWP pipeline depth.

// AblationRow is one benchmark's normalized execution times across the
// ablation's variants.
type AblationRow struct {
	Benchmark string
	Values    []float64 // normalized to the first variant
}

// AblationResult is a generic multi-variant comparison.
type AblationResult struct {
	Title    string
	Variants []string
	Rows     []AblationRow
	Geomean  []float64
}

// Table renders the ablation as text.
func (r *AblationResult) Table() string {
	hdr := append([]string{"Benchmark"}, r.Variants...)
	t := stats.NewTable(r.Title, hdr...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Benchmark}
		for _, v := range row.Values {
			cells = append(cells, v)
		}
		t.AddRowf(cells...)
	}
	cells := []interface{}{"GeoMean"}
	for _, v := range r.Geomean {
		cells = append(cells, v)
	}
	t.AddRowf(cells...)
	return t.String()
}

// Value returns the geomean for the named variant (0 if unknown).
func (r *AblationResult) Value(variant string) float64 {
	for i, v := range r.Variants {
		if v == variant {
			return r.Geomean[i]
		}
	}
	return 0
}

// ablate runs every benchmark over the variants on the worker pool,
// normalizing each row to the first variant's cycle count.
func ablate(ctx context.Context, title string, variants []string, configs []design.Config) (*AblationResult, error) {
	if len(variants) != len(configs) {
		return nil, fmt.Errorf("exp: %d variants vs %d configs", len(variants), len(configs))
	}
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: title, Variants: variants}
	sums := make([][]float64, len(configs))
	for bi, name := range workloads.Names() {
		row := AblationRow{Benchmark: name}
		var base float64
		for ci := range configs {
			total := float64(grid[bi][ci].Cycles)
			if ci == 0 {
				base = total
			}
			norm := total / base
			row.Values = append(row.Values, norm)
			sums[ci] = append(sums[ci], norm)
		}
		res.Rows = append(res.Rows, row)
	}
	for ci := range configs {
		res.Geomean = append(res.Geomean, stats.Geomean(sums[ci]))
	}
	return res, nil
}

// AblationQLU compares software queues with one queue entry per line
// (no false sharing, no spatial locality) against the default dense
// layout. The paper ran this and reported QLU 8 "uniformly better",
// omitting the numbers; this regenerates them.
func AblationQLU(ctx context.Context) (*AblationResult, error) {
	qlu8 := design.ExistingConfig()
	qlu1 := design.ExistingConfig()
	qlu1.Label = "EXISTING_QLU1"
	qlu1.QLU = 1
	qlu1.QueueDepth = 16 // keep the region cache-resident at 128B slots
	qlu8b := qlu8
	qlu8b.Label = "EXISTING_QLU8"
	return ablate(ctx,
		"Ablation: queue layout unit for software queues (paper §4.3, results omitted there)",
		[]string{"QLU8", "QLU1"},
		[]design.Config{qlu8b, qlu1})
}

// AblationBusPipelining compares the baseline 3-stage pipelined bus with
// a non-pipelined bus of the same latency and width (paper §3.3).
func AblationBusPipelining(ctx context.Context) (*AblationResult, error) {
	piped := design.SyncOptiConfig()
	unpiped := design.SyncOptiConfig()
	unpiped.Label = "SYNCOPTI_UNPIPED"
	unpiped.BusPipelined = false
	unpiped.BusCPB = 4
	piped4 := design.SyncOptiConfig()
	piped4.Label = "SYNCOPTI_CPB4"
	piped4.BusCPB = 4
	return ablate(ctx,
		"Ablation: bus pipelining (paper §3.3) on SYNCOPTI",
		[]string{"pipelined cpb1", "pipelined cpb4", "unpipelined cpb4"},
		[]design.Config{piped, piped4, unpiped})
}

// AblationRegMapped compares HEAVYWT's produce/consume instructions with
// register-mapped queues (§3.1.3): folding queue access into the
// defining/using instructions helps exactly the resource-bound loops.
func AblationRegMapped(ctx context.Context) (*AblationResult, error) {
	return ablate(ctx,
		"Ablation: register-mapped queues (paper §3.1.3) vs produce/consume instructions",
		[]string{"HEAVYWT", "REGMAPPED"},
		[]design.Config{design.HeavyWTConfig(), design.RegMappedConfig()})
}

// AblationCentralizedStore compares the distributed dedicated store with
// a centralized one (§3.5.2): the central structure is farther from the
// consuming core, raising consume-to-use latency.
func AblationCentralizedStore(ctx context.Context) (*AblationResult, error) {
	return ablate(ctx,
		"Ablation: distributed vs centralized dedicated store (paper §3.5.2)",
		[]string{"distributed (1cyc)", "central (4cyc)", "central (8cyc)"},
		[]design.Config{
			design.HeavyWTConfig(),
			design.CentralizedStoreConfig(4),
			design.CentralizedStoreConfig(8),
		})
}

// AblationStreamCacheSize sweeps the SYNCOPTI stream cache capacity
// around the paper's 1 KB (64-entry) choice.
func AblationStreamCacheSize(ctx context.Context) (*AblationResult, error) {
	variants := []string{"none", "8", "16", "32", "64 (paper)", "128"}
	var configs []design.Config
	for _, entries := range []int{0, 8, 16, 32, 64, 128} {
		c := design.SyncOptiQ64Config()
		c.Label = fmt.Sprintf("SYNCOPTI_SC%d", entries)
		c.StreamCacheEntries = entries
		configs = append(configs, c)
	}
	return ablate(ctx,
		"Ablation: stream cache capacity (entries) on SYNCOPTI_Q64",
		variants, configs)
}

// AblationNetQueue evaluates §3.5.3's network-backed queues: with the
// interconnect's hop buffers as the only queue storage, decoupling is
// proportional to core separation. Nearby cores (1 hop = 4 buffers)
// starve bursty pipelines; distant cores approach dedicated-store
// performance while paying transit latency the streams tolerate anyway.
func AblationNetQueue(ctx context.Context) (*AblationResult, error) {
	variants := []string{"HEAVYWT (32q/1cyc)", "1 hop", "2 hops", "4 hops", "8 hops"}
	configs := []design.Config{design.HeavyWTConfig()}
	for _, hops := range []int{1, 2, 4, 8} {
		configs = append(configs, design.NetQueueConfig(hops))
	}
	return ablate(ctx,
		"Ablation: network-backed queues (paper §3.5.3) — buffering scales with core separation",
		variants, configs)
}

// AblationProbeTimeout sweeps the consume probe timeout that elicits
// partial-line flushes (§4.2 stream-termination handling).
func AblationProbeTimeout(ctx context.Context) (*AblationResult, error) {
	variants := []string{"25", "50 (default)", "150", "400"}
	var configs []design.Config
	for _, to := range []int{25, 50, 150, 400} {
		c := design.SyncOptiConfig()
		c.Label = fmt.Sprintf("SYNCOPTI_T%d", to)
		c.ProbeTimeout = to
		configs = append(configs, c)
	}
	return ablate(ctx,
		"Ablation: SYNCOPTI partial-line probe timeout (cycles)",
		variants, configs)
}

// AblationStages extends the paper's dual-core evaluation to DSWP depth
// 1-3: each IR benchmark on HEAVYWT machines of 1, 2 and 3 cores (the
// paper argues its pairwise conclusions carry to larger-scale CMPs). It
// is the scaling study on other axes, so it is the same coreStudy.
func AblationStages(ctx context.Context) (*ScalingResult, error) {
	var benches []string
	for _, name := range workloads.Names() {
		// bzip2's nested loop is hand-partitioned: two cores only.
		if b, _ := workloads.Shared(name); b.Loop != nil {
			benches = append(benches, name)
		}
	}
	return coreStudy(ctx,
		"Ablation: DSWP pipeline depth on HEAVYWT (cycles; speedup vs 1 core)",
		benches, []design.Config{design.HeavyWTConfig()}, []int{1, 2, 3})
}
