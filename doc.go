// Package hfstream is a cycle-level reproduction of "Support for
// High-Frequency Streaming in CMPs" (Rangan, Vachharajani, Stoler, Ottoni,
// August, Cai; MICRO 2006).
//
// The paper studies architectural support for pipelined streaming threads
// that communicate every 5-20 dynamic instructions (the threads DSWP-style
// parallelization produces), separates tolerant transit delay from
// critical COMM-OP delay, and evaluates four design points on a dual-core
// Itanium 2 CMP model:
//
//   - EXISTING: software queues over the conventional memory subsystem
//   - MEMOPTI: EXISTING plus QLU-aware write-forwarding
//   - SYNCOPTI: produce/consume instructions with distributed occupancy
//     counters at the L2 controllers (queue data stays in memory)
//   - HEAVYWT: a dedicated synchronization-array store and interconnect
//
// This package is the public face of the reproduction: it exposes the
// design points, the nine workloads, a runner that verifies every result
// against a functional oracle, the experiment harness regenerating each
// table and figure of the paper, and an assembler for running custom
// streaming kernels on any design point.
//
// # Quick start
//
//	b, _ := hfstream.BenchmarkByName("wc")
//	res, err := hfstream.Run(b, hfstream.SyncOptiSCQ64)
//	if err != nil { ... }
//	fmt.Println(res.Cycles, res.CommRatio(1))
//
// The cmd/hfsim and cmd/hfexp commands wrap this API, and cmd/hfdswp
// inspects DSWP partitions; ExampleRunPrograms shows a custom kernel and
// ExampleRunSingleThreaded a benchmark swept across the design points.
package hfstream
