package hfstream

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each regenerates the corresponding result and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Figure-level shape expectations
// (who wins, by roughly what factor) are asserted in
// internal/exp/shape_test.go.

import (
	"context"
	"testing"

	"hfstream/internal/exp"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	var iters float64
	for i := 0; i < b.N; i++ {
		r := exp.Fig3()
		iters = r.Rows[2].Iterations / r.Rows[0].Iterations
	}
	b.ReportMetric(iters, "throughput-gain")
}

func BenchmarkFig6TransitDelay(b *testing.B) {
	var bzip, geo float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		geo = r.Geomean[1]
		for _, row := range r.Rows {
			if row.Benchmark == "bzip2" {
				bzip = row.Values[1]
			}
		}
	}
	b.ReportMetric(geo, "geomean-norm-10cyc")
	b.ReportMetric(bzip, "bzip2-norm-10cyc")
}

func BenchmarkFig7DesignPoints(b *testing.B) {
	var syncOpti, existing float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig7Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		syncOpti = r.NormTotal("SYNCOPTI")
		existing = r.NormTotal("EXISTING")
	}
	b.ReportMetric(syncOpti, "syncopti-vs-heavywt")
	b.ReportMetric(existing, "existing-vs-heavywt")
}

// BenchmarkFig7Serial is BenchmarkFig7DesignPoints with the worker pool
// pinned to one goroutine (the old serial path); comparing the two
// measures the experiment runner's parallel speedup on this machine.
func BenchmarkFig7Serial(b *testing.B) {
	exp.SetParallelism(1)
	defer exp.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7Ctx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8CommFrequency(b *testing.B) {
	var prod, cons float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig8Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		prod = r.Geomean.Producer
		cons = r.Geomean.Consumer
	}
	b.ReportMetric(1/prod, "app-instrs-per-comm-prod")
	b.ReportMetric(1/cons, "app-instrs-per-comm-cons")
}

func BenchmarkFig9Speedup(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig9Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		geo = r.Geomean
	}
	b.ReportMetric(geo, "geomean-speedup")
}

func BenchmarkFig10SlowBus(b *testing.B) {
	var existing float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig10Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		existing = r.NormTotal("EXISTING")
	}
	b.ReportMetric(existing, "existing-vs-heavywt-cpb4")
}

func BenchmarkFig11WideBus(b *testing.B) {
	var existing float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		existing = r.NormTotal("EXISTING")
	}
	b.ReportMetric(existing, "existing-vs-heavywt-wide")
}

func BenchmarkFig12Optimizations(b *testing.B) {
	var scq64 float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig12Ctx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		scq64 = r.Producer.NormTotal("SYNCOPTI_SC+Q64")
	}
	b.ReportMetric(scq64, "scq64-vs-heavywt")
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (cycles simulated per wall-clock second) on the wc/SYNCOPTI pair.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, err := BenchmarkByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(bench, SyncOpti)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}
