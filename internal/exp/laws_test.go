package exp

import (
	"context"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/workloads"
)

// lawTolerance is the one slack the transit and slow-bus laws allow, in
// cycles. It exists for mcf, where HEAVYWT's InterconnectLat 1 -> 2 reads
// 142 983 -> 142 975: a shifted arbitration phase, not a faster pipeline.
const lawTolerance = 8

// law is one sweep a kernel must never get faster along: each step's
// configuration is the previous one with more latency in the knob name
// sets to vals.
type law struct {
	name  string
	vals  []int
	steps []design.Config
}

func sweep(name string, base design.Config, vals []int, set func(*design.Config, int)) law {
	l := law{name: name, vals: vals}
	for _, v := range vals {
		c := base
		set(&c, v)
		l.steps = append(l.steps, c)
	}
	return l
}

// TestTransitAndSlowBusLaws asserts the paper's transit law on every
// kernel: more interconnect latency or consume-to-use latency on HEAVYWT
// (Fig. 6, §3.5.2) and a slower bus on EXISTING, SYNCOPTI and HEAVYWT
// (Fig. 10) never make a pipeline faster, beyond lawTolerance. Each
// step is held to the slowest step before it, not just its neighbour.
// Under -short only art, mcf and bzip2 run.
func TestTransitAndSlowBusLaws(t *testing.T) {
	setLat := func(c *design.Config, v int) { c.InterconnectLat = v }
	setC2U := func(c *design.Config, v int) { c.SAConsumeToUse = v }
	setCPB := func(c *design.Config, v int) { c.BusCPB = v }
	laws := []law{
		sweep("HEAVYWT InterconnectLat", design.HeavyWTConfig(), []int{1, 2, 4, 8, 16, 32}, setLat),
		sweep("HEAVYWT SAConsumeToUse", design.HeavyWTConfig(), []int{1, 2, 4, 8}, setC2U),
		sweep("EXISTING BusCPB", design.ExistingConfig(), []int{1, 2, 4}, setCPB),
		sweep("SYNCOPTI BusCPB", design.SyncOptiConfig(), []int{1, 2, 4}, setCPB),
		sweep("HEAVYWT BusCPB", design.HeavyWTConfig(), []int{1, 2, 4}, setCPB),
	}
	benches := workloads.Names()
	if testing.Short() {
		benches = []string{"art", "mcf", "bzip2"}
	}
	var jobs []Job
	for _, b := range benches {
		for _, l := range laws {
			for _, c := range l.steps {
				jobs = append(jobs, Job{Bench: b, Config: c})
			}
		}
	}
	results := (&Runner{}).Run(context.Background(), jobs)
	i := 0
	for _, b := range benches {
		for _, l := range laws {
			var slowest uint64
			for _, v := range l.vals {
				r := results[i]
				i++
				if r.Err != nil {
					t.Fatalf("%s %s %d: %v", b, l.name, v, r.Err)
				}
				if r.Res.Cycles+lawTolerance < slowest {
					t.Errorf("%s %s %d: %d cycles, faster than the %d of a smaller value",
						b, l.name, v, r.Res.Cycles, slowest)
				}
				slowest = max(slowest, r.Res.Cycles)
			}
		}
	}
}
