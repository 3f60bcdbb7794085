package sim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hfstream/internal/bus"
	"hfstream/internal/design"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
	"hfstream/trace"
)

// TestStallAttributionInvariant checks the acceptance identity on every
// standard design point: per core, stall cycles by reason sum to total
// cycles minus issued-slot cycles, and the per-region stall view agrees.
func TestStallAttributionInvariant(t *testing.T) {
	for _, cfg := range design.StandardConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			res := runPipe(t, cfg, 300)
			for i := range res.Stalls {
				stall := res.Stalls[i].Total()
				if want := res.CoreCycles[i] - res.IssueCycles[i]; stall != want {
					t.Errorf("core %d: stall total %d != cycles %d - issue cycles %d",
						i, stall, res.CoreCycles[i], res.IssueCycles[i])
				}
				if got := res.StallRegions[i].Total(); got != stall {
					t.Errorf("core %d: stall regions total %d != stall total %d", i, got, stall)
				}
			}
		})
	}
}

func runTraced(t *testing.T, cfg design.Config, buf *trace.Buffer) *sim.Result {
	t.Helper()
	image := mem.New()
	simCfg := cfg.SimConfig()
	simCfg.Trace = buf
	res, err := sim.Run(simCfg, image, []sim.Thread{
		{Prog: producerProg(60)}, {Prog: consumerProg()},
	})
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name(), err)
	}
	return res
}

func TestTraceRecordsRun(t *testing.T) {
	buf := trace.NewBuffer(1 << 14)
	res := runTraced(t, design.HeavyWTConfig(), buf)
	if buf.Len() == 0 {
		t.Fatal("trace buffer is empty")
	}
	kinds := map[trace.Kind]int{}
	for _, e := range buf.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindIssue, trace.KindQueueOp, trace.KindRetire} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}

	var data bytes.Buffer
	if err := trace.WriteChrome(&data, buf.Events(), buf.Dropped()); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := trace.ReadChrome(data.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not round-trip: %v", err)
	}
	if len(parsed) != buf.Len() {
		t.Errorf("round trip produced %d events, want %d", len(parsed), buf.Len())
	}
	if res.Trace != buf {
		t.Error("Result.Trace does not expose the configured buffer")
	}
}

// sim.Run resolves one trace name per bus kind up to bus.Probe, which must
// therefore be the last kind.
func TestBusProbeIsLastKind(t *testing.T) {
	if s := (bus.Probe + 1).String(); !strings.HasPrefix(s, "Kind(") {
		t.Errorf("bus kind after Probe is %q; sim.Run's trace hook has no name for it", s)
	}
}

func TestMetricsJSONShape(t *testing.T) {
	res := runPipe(t, design.SyncOptiConfig(), 200)
	buf, err := res.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Cycles uint64 `json:"cycles"`
		Cores  []struct {
			Cycles      uint64            `json:"cycles"`
			IssueCycles uint64            `json:"issue_cycles"`
			StallCycles uint64            `json:"stall_cycles"`
			Stalls      map[string]uint64 `json:"stalls"`
		} `json:"cores"`
		Bus struct {
			Grants uint64 `json:"grants"`
		} `json:"bus"`
		QueueOccupancy []struct {
			Range string `json:"range"`
			Count uint64 `json:"count"`
		} `json:"queue_occupancy"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("metrics are not valid JSON: %v", err)
	}
	if m.Cycles != res.Cycles {
		t.Errorf("metrics cycles = %d, want %d", m.Cycles, res.Cycles)
	}
	if len(m.Cores) != 2 {
		t.Fatalf("metrics cores = %d, want 2", len(m.Cores))
	}
	for i, c := range m.Cores {
		if c.IssueCycles+c.StallCycles != c.Cycles {
			t.Errorf("core %d: issue %d + stall %d != cycles %d",
				i, c.IssueCycles, c.StallCycles, c.Cycles)
		}
		var sum uint64
		for _, n := range c.Stalls {
			sum += n
		}
		if sum != c.StallCycles {
			t.Errorf("core %d: stall map sums to %d, want %d", i, sum, c.StallCycles)
		}
	}
	if m.Bus.Grants == 0 {
		t.Error("software-queue run recorded no bus grants")
	}
	if len(m.QueueOccupancy) == 0 {
		t.Error("no queue occupancy histogram")
	}

	// Determinism: a second identical run must serialize byte-identically —
	// this is what lets CI diff golden snapshots.
	buf2, err := runPipe(t, design.SyncOptiConfig(), 200).MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Error("metrics JSON is not deterministic across identical runs")
	}
}

func TestMetricsSAOccupancy(t *testing.T) {
	res := runPipe(t, design.HeavyWTConfig(), 200)
	m := res.Metrics()
	if len(m.SAOccupancy) == 0 {
		t.Error("HEAVYWT metrics missing synchronization-array occupancy")
	}
	if m.Cores[0].Produces == 0 || m.Cores[1].Consumes == 0 {
		t.Errorf("queue-op counts missing: produces=%d consumes=%d",
			m.Cores[0].Produces, m.Cores[1].Consumes)
	}
}
