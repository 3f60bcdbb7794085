package exp

// The shape tests assert the qualitative shape of every headline result:
// who wins, by roughly what factor, and where the crossovers fall. The
// bands are intentionally loose — the substrate is a from-scratch
// simulator, not the authors' testbed — but each captures a claim the
// paper makes. EXPERIMENTS.md records the exact measured values. Each
// reads its catalog rows through figure, so it checks the very run
// TestCatalogGolden pins.

import (
	"slices"
	"sort"
	"testing"
)

func TestShapeFig7DesignOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := figure(t, "fig7").(*BreakdownFigure)
	heavy := r.NormTotal("HEAVYWT")
	syncOpti := r.NormTotal("SYNCOPTI")
	memOpti := r.NormTotal("MEMOPTI")
	existing := r.NormTotal("EXISTING")
	t.Logf("HEAVYWT=%.3f SYNCOPTI=%.3f MEMOPTI=%.3f EXISTING=%.3f",
		heavy, syncOpti, memOpti, existing)

	// HEAVYWT is the normalization baseline.
	if heavy != 1.0 {
		t.Errorf("HEAVYWT baseline = %v, want 1.0", heavy)
	}
	// SYNCOPTI trails HEAVYWT modestly (paper: 31% slower).
	if syncOpti < 1.05 || syncOpti > 1.8 {
		t.Errorf("SYNCOPTI = %.3f, want a modest slowdown in (1.05, 1.8)", syncOpti)
	}
	// EXISTING and MEMOPTI are roughly 2x slower (paper: 1.6x speedup for
	// SYNCOPTI over both; overall ~2x vs the best designs).
	if existing < 1.7 || existing > 3.5 {
		t.Errorf("EXISTING = %.3f, want roughly 2x in (1.7, 3.5)", existing)
	}
	if memOpti < 1.7 || memOpti > 3.5 {
		t.Errorf("MEMOPTI = %.3f, want roughly 2x in (1.7, 3.5)", memOpti)
	}
	// MEMOPTI and EXISTING are close overall; the paper found EXISTING
	// sometimes ahead.
	if ratio := memOpti / existing; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("MEMOPTI/EXISTING = %.3f, want near parity", ratio)
	}
	// SYNCOPTI clearly beats the software designs.
	if syncOpti >= existing {
		t.Errorf("SYNCOPTI (%.3f) should beat EXISTING (%.3f)", syncOpti, existing)
	}
}

func TestShapeFig7WcIsWorstForSyncOpti(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := figure(t, "fig7").(*BreakdownFigure)
	// The paper: "for wc, SYNCOPTI is almost twice as slow as HEAVYWT
	// because the streaming loop is very tight, with three consume
	// operations per iteration".
	for _, row := range r.Rows {
		if row.Benchmark != "wc" {
			continue
		}
		for _, bar := range row.Bars {
			if bar.Design == "SYNCOPTI" {
				if bar.Total < 1.5 || bar.Total > 2.6 {
					t.Errorf("wc SYNCOPTI = %.3f, want near 2x", bar.Total)
				}
			}
		}
	}
}

// TestFig7ConsumerMatchesProducerOverall reproduces the paper's remark:
// "the overall performance of the consumer core was the same as for the
// producer, except that its component breakdowns differed".
func TestFig7ConsumerMatchesProducerOverall(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	prod := figure(t, "fig7").(*BreakdownFigure)
	cons := figure(t, "fig7-consumer").(*BreakdownFigure)
	for _, name := range []string{"SYNCOPTI", "EXISTING"} {
		p, c := prod.NormTotal(name), cons.NormTotal(name)
		// Both cores finish the pipeline together, so totals track within
		// a modest band even though their breakdowns differ.
		if ratio := c / p; ratio < 0.75 || ratio > 1.33 {
			t.Errorf("%s: consumer/producer norm ratio %.3f, want near 1", name, ratio)
		}
	}
}

func TestShapeFig6TransitTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := figure(t, "fig6").(*AblationResult)
	// Headline: pipelined streaming tolerates a 10x transit-delay
	// increase; overall the two bars are nearly identical.
	if r.Geomean[1] > 1.10 {
		t.Errorf("geomean at 10-cycle transit = %.3f, want near 1.0", r.Geomean[1])
	}
	// bzip2 is the outlier: its nested loop has poor outer-loop
	// decoupling (paper: 33% slowdown; shape requirement: the clear max).
	var bzip, maxOther float64
	for _, row := range r.Rows {
		if row.Benchmark == "bzip2" {
			bzip = row.Values[1]
		} else if row.Values[1] > maxOther {
			maxOther = row.Values[1]
		}
	}
	if bzip < 1.08 {
		t.Errorf("bzip2 at 10-cycle transit = %.3f, want a visible slowdown", bzip)
	}
	if bzip <= maxOther {
		t.Errorf("bzip2 (%.3f) should be the worst benchmark (next worst %.3f)", bzip, maxOther)
	}
}

func TestShapeFig8CommEvery5to20(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := figure(t, "fig8").(*Fig8Result)
	// "communication occurring every 5 to 20 dynamic instructions" on
	// average; individual benchmarks range wider (wc is ~1 per 2-3).
	for _, g := range []float64{r.Geomean.Producer, r.Geomean.Consumer} {
		per := 1 / g
		if per < 3 || per > 20 {
			t.Errorf("geomean 1 comm per %.1f app instrs, want within [3, 20]", per)
		}
	}
	// wc, mcf and bzip2 communicate most often: theirs are the three
	// highest average comm:app ratios.
	avg := func(row Fig8Row) float64 { return (row.Producer + row.Consumer) / 2 }
	rows := slices.Clone(r.Rows)
	sort.Slice(rows, func(i, j int) bool { return avg(rows[i]) > avg(rows[j]) })
	top := []string{rows[0].Benchmark, rows[1].Benchmark, rows[2].Benchmark}
	slices.Sort(top)
	if !slices.Equal(top, []string{"bzip2", "mcf", "wc"}) {
		t.Errorf("the three highest average ratios are %v, want bzip2, mcf and wc", top)
	}
	var wc float64
	for _, row := range rows {
		if row.Benchmark == "wc" {
			wc = avg(row)
		}
	}
	if wc == 0 {
		t.Fatal("wc missing")
	}
	if 1/wc > 6 {
		t.Errorf("wc communicates once per %.1f app instrs, want the tightest (<6)", 1/wc)
	}
}

func TestShapeFig9Parallelization(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := figure(t, "fig9").(*Fig9Result)
	// Paper: 29% geomean speedup of HEAVYWT over single-threaded.
	if r.Geomean < 1.15 || r.Geomean > 1.65 {
		t.Errorf("geomean speedup = %.3f, want in (1.15, 1.65) around the paper's 1.29", r.Geomean)
	}
	// Every benchmark should at least roughly break even (the paper's
	// point: with HEAVYWT, parallelization pays off).
	for _, row := range r.Rows {
		if row.Speedup < 0.95 {
			t.Errorf("%s speedup = %.3f < 0.95", row.Benchmark, row.Speedup)
		}
	}
}

func TestShapeFig12StreamCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	f12 := figure(t, "fig12").(*Fig12Result)
	f7 := figure(t, "fig7").(*BreakdownFigure)
	scq64 := f12.Producer.NormTotal("SYNCOPTI_SC+Q64")
	sc := f12.Producer.NormTotal("SYNCOPTI_SC")
	syncOpti := f12.Producer.NormTotal("SYNCOPTI")
	existing := f7.NormTotal("EXISTING")
	t.Logf("SC+Q64=%.3f SC=%.3f SYNCOPTI=%.3f EXISTING=%.3f", scq64, sc, syncOpti, existing)

	// The stream cache closes most of the gap to HEAVYWT (paper: to
	// within 2%; our consume path keeps a slightly larger residual).
	if scq64 > 1.15 {
		t.Errorf("SYNCOPTI_SC+Q64 = %.3f, want within ~15%% of HEAVYWT", scq64)
	}
	if scq64 >= syncOpti {
		t.Errorf("SC+Q64 (%.3f) should beat plain SYNCOPTI (%.3f)", scq64, syncOpti)
	}
	// Headline: ~2x speedup over EXISTING.
	speedup := existing / scq64
	if speedup < 1.6 || speedup > 3.2 {
		t.Errorf("SC+Q64 speedup over EXISTING = %.2fx, want near the paper's 2x", speedup)
	}
}

func TestShapeFig10and11BusSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	base := figure(t, "fig7").(*BreakdownFigure).NormTotal("EXISTING")
	slow := figure(t, "fig10").(*BreakdownFigure).NormTotal("EXISTING")
	wide := figure(t, "fig11").(*BreakdownFigure).NormTotal("EXISTING")
	t.Logf("EXISTING vs HEAVYWT: baseline=%.3f cpb4=%.3f cpb4+wide=%.3f", base, slow, wide)

	// A 4-cycle bus hurts the software designs more than HEAVYWT.
	if slow <= base {
		t.Errorf("EXISTING should lose more ground on a slow bus: %.3f <= %.3f", slow, base)
	}
	// Widening the bus to a full line per beat recovers bandwidth.
	if wide >= slow {
		t.Errorf("wide bus should recover: %.3f >= %.3f", wide, slow)
	}
}
