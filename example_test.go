package hfstream_test

import (
	"fmt"
	"log"

	"hfstream"
)

// Running a paper benchmark on a design point returns an oracle-verified
// result.
func Example() {
	b, err := hfstream.BenchmarkByName("epicdec")
	if err != nil {
		log.Fatal(err)
	}
	res, err := hfstream.Run(b, hfstream.HeavyWT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Cycles > 0, len(res.Breakdowns))
	// Output: true 2
}

// Design points are values; knob methods derive sensitivity variants.
func ExampleDesign_WithBus() {
	slow := hfstream.Existing.WithBus(4, 16, true)
	fmt.Println(slow.Name(), hfstream.Existing.Name())
	// Output: EXISTING EXISTING
}

// Custom streaming kernels compile from assembly text and run on any
// design point, with a functional oracle available for verification.
func ExampleCompileAsm() {
	prod, err := hfstream.CompileAsm("prod", `
		movi r1, 5
	loop:
		produce q0, r1
		addi r1, r1, -1
		bnez r1, loop
		halt
	`)
	if err != nil {
		log.Fatal(err)
	}
	cons, err := hfstream.CompileAsm("cons", `
		movi r1, 5
		movi r2, 0
		movi r3, 0x1000
	loop:
		consume r4, q0
		add  r2, r2, r4
		addi r1, r1, -1
		bnez r1, loop
		st   [r3+0], r2
		halt
	`)
	if err != nil {
		log.Fatal(err)
	}
	run, err := hfstream.RunPrograms(hfstream.SyncOpti, []*hfstream.Program{prod, cons}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(run.Read(0x1000))
	// Output: 15
}

// A StreamIt-style hand pipeline: a two-stage 3-tap moving-sum filter
// written directly against the produce/consume ISA, the way the paper's
// StreamIt benchmarks were hand-parallelized, run on every design point and
// verified against the functional interpreter.
func ExampleRunPrograms() {
	const (
		samples = 1000
		inBase  = 0x200000
		outBase = 0x300000
	)
	// Stage 1: stream samples from memory.
	source, err := hfstream.CompileAsm("source", fmt.Sprintf(`
		movi r1, %d      ; input pointer
		movi r2, %d      ; trip count
		movi r3, 0       ; index
	loop:
		ld   r4, [r1+0]
		addi r1, r1, 8
		produce q0, r4
		addi r3, r3, 1
		cmplt r5, r3, r2
		bnez r5, loop
		halt
	`, inBase, samples))
	if err != nil {
		log.Fatal(err)
	}
	// Stage 2: 3-tap moving sum, streamed to an output array.
	filter, err := hfstream.CompileAsm("filter", fmt.Sprintf(`
		movi r1, %d      ; output pointer
		movi r2, %d      ; trip count
		movi r3, 0       ; index
		movi r6, 0       ; delay 1
		movi r7, 0       ; delay 2
	loop:
		consume r4, q0
		add  r5, r4, r6
		add  r5, r5, r7
		st   [r1+0], r5
		addi r1, r1, 8
		mov  r7, r6
		mov  r6, r4
		addi r3, r3, 1
		cmplt r8, r3, r2
		bnez r8, loop
		halt
	`, outBase, samples))
	if err != nil {
		log.Fatal(err)
	}
	init := map[uint64]uint64{} // a deterministic ramp
	for i := 0; i < samples; i++ {
		init[inBase+uint64(i*8)] = uint64(i % 17)
	}
	progs := []*hfstream.Program{source, filter}
	oracle, err := hfstream.Interpret(progs, init)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("3-tap moving-sum pipeline over %d samples\n", samples)
	for _, d := range hfstream.Designs() {
		run, err := hfstream.RunPrograms(d, progs, init)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < samples; i++ {
			addr := uint64(outBase + i*8)
			if run.Read(addr) != oracle(addr) {
				log.Fatalf("%s: output mismatch at sample %d", d.Name(), i)
			}
		}
		fmt.Printf("%-18s %8d cycles (%.1f cycles/sample), verified against oracle\n",
			d.Name(), run.Cycles, float64(run.Cycles)/samples)
	}
	// Output:
	// 3-tap moving-sum pipeline over 1000 samples
	// EXISTING              23423 cycles (23.4 cycles/sample), verified against oracle
	// MEMOPTI               23414 cycles (23.4 cycles/sample), verified against oracle
	// SYNCOPTI              15473 cycles (15.5 cycles/sample), verified against oracle
	// SYNCOPTI_Q64          15279 cycles (15.3 cycles/sample), verified against oracle
	// SYNCOPTI_SC           15694 cycles (15.7 cycles/sample), verified against oracle
	// SYNCOPTI_SC+Q64       15238 cycles (15.2 cycles/sample), verified against oracle
	// HEAVYWT               15166 cycles (15.2 cycles/sample), verified against oracle
}

// One benchmark on every design point, against the single-threaded
// baseline on one core of the EXISTING machine.
func ExampleRunSingleThreaded() {
	b, err := hfstream.BenchmarkByName("wc")
	if err != nil {
		log.Fatal(err)
	}
	single, err := hfstream.RunSingleThreaded(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s, %s), %d iterations\n", b.Name(), b.Suite(), b.Function(), b.Iterations())
	fmt.Printf("%-18s %10d cycles (baseline)\n", "single-threaded", single.Cycles)
	for _, d := range hfstream.Designs() {
		res, err := hfstream.Run(b, d)
		if err != nil {
			log.Fatal(err)
		}
		speedup := float64(single.Cycles) / float64(res.Cycles)
		fmt.Printf("%-18s %10d cycles  speedup %.2fx  comm 1 per %.1f app instrs\n",
			d.Name(), res.Cycles, speedup, 1/res.CommRatio(1))
	}
	// Output:
	// wc (Unix utility, cnt), 2500 iterations
	// single-threaded         24072 cycles (baseline)
	// EXISTING                97274 cycles  speedup 0.25x  comm 1 per 0.4 app instrs
	// MEMOPTI                103444 cycles  speedup 0.23x  comm 1 per 0.4 app instrs
	// SYNCOPTI                27722 cycles  speedup 0.87x  comm 1 per 4.0 app instrs
	// SYNCOPTI_Q64            27766 cycles  speedup 0.87x  comm 1 per 4.0 app instrs
	// SYNCOPTI_SC             16799 cycles  speedup 1.43x  comm 1 per 4.0 app instrs
	// SYNCOPTI_SC+Q64         16842 cycles  speedup 1.43x  comm 1 per 4.0 app instrs
	// HEAVYWT                 16577 cycles  speedup 1.45x  comm 1 per 4.0 app instrs
}

// The experiment harness regenerates any of the paper's tables/figures.
func ExampleRunExperiment() {
	out, err := hfstream.RunExperiment(hfstream.ExpFig3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out) > 0)
	// Output: true
}
