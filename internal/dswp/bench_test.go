package dswp_test

import (
	"testing"

	"hfstream/internal/dswp"
	"hfstream/internal/ir"
	"hfstream/internal/workloads"
)

// BenchmarkPartition times the compiler alone, from PDG to thread
// programs: a deep fft2 chain, fft2 across five PS-DSWP workers, and the
// dual-core fir cut.
func BenchmarkPartition(b *testing.B) {
	for _, c := range []struct {
		name, bench string
		n           int
		partition   func(*ir.Loop, int) (*dswp.Result, error)
	}{
		{"fft2_chain6", "fft2", 6, dswp.PartitionN},
		{"fft2_workers5", "fft2", 5, dswp.PartitionParallel},
		{"fir_chain2", "fir", 2, dswp.PartitionN},
	} {
		w, err := workloads.ByName(c.bench)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.partition(w.Loop, c.n)
				if err != nil {
					b.Fatal(err)
				}
				partitionSink = res
			}
		})
	}
}

var partitionSink *dswp.Result
