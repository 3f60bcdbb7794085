package workloads

import (
	"math"

	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// counted sets up an N-iteration counted loop and returns the index node
// (values 0..N-1). The exit condition is pure arithmetic, so DSWP
// replicates it into both threads.
func counted(l *ir.Loop, n int) *ir.Node {
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, ir.V(idx), ir.C(int64(n-1)))
	l.SetExit(cond)
	return idx
}

// buildWc is the Unix `wc` cnt loop: the tightest kernel (100% of
// execution time). The producer classifies each character; the consumer
// maintains line/word counters. Three values cross the pipeline each
// iteration (the paper notes wc's three consumes per iteration).
func buildWc() *Benchmark {
	const n = 2500
	a := newAlloc()
	text := a.Alloc("wc.text", n*8)
	out := a.Alloc("wc.out", 128)

	l := ir.NewLoop("wc")
	idx := counted(l, n)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(text.Base)))
	c := l.Load(&text, ir.V(addr), 0)
	isNL := l.Op(isa.CmpEQ, ir.V(c), ir.C(10))
	isSP := l.Op(isa.CmpEQ, ir.V(c), ir.C(32))
	// The character classification belongs to the front-end stage, as in
	// the paper's partition (its consumer performs three consumes per
	// iteration: the newline flag plus direct and carried uses of the
	// space flag).
	l.Pin(isNL, 0)
	l.Pin(isSP, 0)

	lines := l.Acc(isa.Add, ir.V(isNL), 0)
	notSP := l.Op(isa.Xor, ir.V(isSP), ir.C(1))
	start := l.Op(isa.And, ir.Carried(isSP, 1), ir.V(notSP))
	words := l.Acc(isa.Add, ir.V(start), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(lines))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(words))

	return &Benchmark{
		Name: "wc", Suite: "Unix utility", Function: "cnt", ExecPct: 100,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(1)
			for i := 0; i < n; i++ {
				var ch uint64
				switch v := r.intn(100); {
				case v < 5:
					ch = 10 // newline
				case v < 22:
					ch = 32 // space
				default:
					ch = uint64(97 + r.intn(26))
				}
				img.Write8(text.Base+uint64(i*8), ch)
			}
		},
	}
}

// buildAdpcmdec is the Mediabench ADPCM decoder loop: a tight integer
// kernel with carried predictor/step state in the consumer.
func buildAdpcmdec() *Benchmark {
	const n = 2000
	a := newAlloc()
	input := a.Alloc("adpcm.in", n*8)
	out := a.Alloc("adpcm.out", 128)

	l := ir.NewLoop("adpcmdec")
	idx := counted(l, n)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(input.Base)))
	delta := l.Load(&input, ir.V(addr), 0)

	sign := l.Op(isa.AndI, ir.V(delta), ir.C(8))
	mag := l.Op(isa.AndI, ir.V(delta), ir.C(7))
	// Step-size adaptation: a bounded carried pair (sum then mask).
	sAdj := l.Op(isa.ShlI, ir.V(mag), ir.C(2))
	var sMask *ir.Node
	sSum := l.Op(isa.Add, ir.V(sAdj), ir.C(0)) // patched below to carry sMask
	sMask = l.Op(isa.AndI, ir.V(sSum), ir.C(255))
	sSum.Args[1] = ir.Carried(sMask, 16)
	// Predictor update.
	d1 := l.Op(isa.Mul, ir.V(mag), ir.Carried(sMask, 16))
	d2 := l.Op(isa.ShrI, ir.V(d1), ir.C(3))
	d3 := l.Op(isa.Xor, ir.V(d2), ir.V(sign))
	val := l.Acc(isa.Add, ir.V(d3), 0)
	chk := l.Acc(isa.Xor, ir.V(val), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(val))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(chk))

	return &Benchmark{
		Name: "adpcmdec", Suite: "Mediabench", Function: "adpcm_decoder", ExecPct: 98,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(2)
			for i := 0; i < n; i++ {
				img.Write8(input.Base+uint64(i*8), uint64(r.intn(16)))
			}
		},
	}
}

// buildEquake is 183.equake's smvp sparse matrix-vector kernel: indirect
// FP loads over a ~1MB vector (L2-resident data does not fit; most vector
// accesses hit the L3).
func buildEquake() *Benchmark {
	const (
		n        = 2000
		vecWords = 128 * 1024 // 1 MB vector
	)
	a := newAlloc()
	colidx := a.Alloc("equake.colidx", n*8)
	avals := a.Alloc("equake.avals", n*8)
	vec := a.Alloc("equake.vec", vecWords*8)
	out := a.Alloc("equake.out", 128)

	l := ir.NewLoop("equake")
	idx := counted(l, n)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	iaddr := l.Op(isa.AddI, ir.V(off), ir.C(int64(colidx.Base)))
	col := l.Load(&colidx, ir.V(iaddr), 0)
	voff := l.Op(isa.ShlI, ir.V(col), ir.C(3))
	vaddr := l.Op(isa.AddI, ir.V(voff), ir.C(int64(vec.Base)))
	v := l.Load(&vec, ir.V(vaddr), 0)
	aaddr := l.Op(isa.AddI, ir.V(off), ir.C(int64(avals.Base)))
	av := l.Load(&avals, ir.V(aaddr), 0)

	prod := l.Op(isa.FMul, ir.V(av), ir.V(v))
	acc := l.Acc(isa.FAdd, ir.V(prod), 0)
	scaled := l.Op(isa.FMul, ir.V(prod), ir.C(int64(math.Float64bits(0.5))))
	acc2 := l.Acc(isa.FAdd, ir.V(scaled), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(acc))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(acc2))

	return &Benchmark{
		Name: "equake", Suite: "SPEC CFP2000", Function: "smvp", ExecPct: 68,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(3)
			for i := 0; i < n; i++ {
				img.Write8(colidx.Base+uint64(i*8), uint64(r.intn(vecWords)))
				img.Write8(avals.Base+uint64(i*8), r.fbits(0, 1))
			}
			// Only the vector entries the kernel touches need values, but
			// populate a deterministic subset for realism.
			for i := 0; i < vecWords; i += 16 {
				img.Write8(vec.Base+uint64(i*8), r.fbits(0, 1))
			}
		},
	}
}

// buildMcf is 181.mcf's refresh_potential loop: a pointer chase over a
// 4MB arc/node pool, far exceeding the L3, so the producer is dominated
// by main-memory latency.
func buildMcf() *Benchmark {
	const (
		n        = 1200
		poolSize = 4 << 20 // 4 MB
	)
	a := newAlloc()
	pool := a.Alloc("mcf.nodes", poolSize)
	out := a.Alloc("mcf.out", 128)

	l := ir.NewLoop("mcf")
	// ptr = load(ptr->next): the cyclic traversal SCC.
	ptr := l.Load(&pool, ir.C(0), 0)
	ptr.Args[0] = ir.Operand{Node: ptr, Carried: true, Init: int64(pool.Base)}
	cost := l.Load(&pool, ir.V(ptr), 8)
	pot := l.Acc(isa.Add, ir.V(cost), 0)
	chk := l.Acc(isa.Xor, ir.V(pot), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(pot))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(chk))
	cond := l.Op(isa.CmpNE, ir.V(ptr), ir.C(0))
	l.SetExit(cond)

	return &Benchmark{
		Name: "mcf", Suite: "SPEC CINT2000", Function: "refresh_potential", ExecPct: 30,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(4)
			lines := poolSize / 128
			// A random cycle-free chain over n distinct cache lines.
			perm := make([]int, 0, n)
			seen := map[int]bool{0: true}
			perm = append(perm, 0)
			for len(perm) < n {
				ln := r.intn(lines)
				if !seen[ln] {
					seen[ln] = true
					perm = append(perm, ln)
				}
			}
			for i := 0; i < n; i++ {
				nodeAddr := pool.Base + uint64(perm[i]*128)
				next := uint64(0)
				if i+1 < n {
					next = pool.Base + uint64(perm[i+1]*128)
				}
				img.Write8(nodeAddr, next)
				img.Write8(nodeAddr+8, uint64(r.intn(1000)))
			}
		},
	}
}

// buildEpicdec is the EPIC decoder's read-and-huffman-decode loop: very
// tight, one value crossing per iteration.
func buildEpicdec() *Benchmark {
	const n = 2500
	a := newAlloc()
	input := a.Alloc("epic.in", n*8)
	out := a.Alloc("epic.out", 128)

	l := ir.NewLoop("epicdec")
	idx := counted(l, n)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(input.Base)))
	code := l.Load(&input, ir.V(addr), 0)

	low := l.Op(isa.AndI, ir.V(code), ir.C(255))
	sym := l.Acc(isa.Xor, ir.V(low), 0)
	cnt := l.Acc(isa.Add, ir.V(sym), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(sym))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(cnt))

	return &Benchmark{
		Name: "epicdec", Suite: "Mediabench", Function: "read_and_huffman_decode", ExecPct: 21,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(5)
			for i := 0; i < n; i++ {
				img.Write8(input.Base+uint64(i*8), r.next()&0xffff)
			}
		},
	}
}

// buildArt is 179.art's match loop: streaming FP over ~512KB of weights
// (256-byte stride misses the L2 on every access).
func buildArt() *Benchmark {
	const (
		n      = 2000
		stride = 256
	)
	a := newAlloc()
	weights := a.Alloc("art.weights", n*stride)
	inputs := a.Alloc("art.inputs", n*8)
	out := a.Alloc("art.out", 128)

	l := ir.NewLoop("art")
	idx := counted(l, n)
	woff := l.Op(isa.ShlI, ir.V(idx), ir.C(8))
	waddr := l.Op(isa.AddI, ir.V(woff), ir.C(int64(weights.Base)))
	w := l.Load(&weights, ir.V(waddr), 0)
	ioff := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	iaddr := l.Op(isa.AddI, ir.V(ioff), ir.C(int64(inputs.Base)))
	x := l.Load(&inputs, ir.V(iaddr), 0)

	p := l.Op(isa.FMul, ir.V(w), ir.V(x))
	acc := l.Acc(isa.FAdd, ir.V(p), 0)
	y := l.Op(isa.FMul, ir.V(p), ir.C(int64(math.Float64bits(0.25))))
	acc2 := l.Acc(isa.FAdd, ir.V(y), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(acc))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(acc2))

	return &Benchmark{
		Name: "art", Suite: "SPEC CFP2000", Function: "match", ExecPct: 20,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(6)
			for i := 0; i < n; i++ {
				img.Write8(weights.Base+uint64(i*stride), r.fbits(0, 1))
				img.Write8(inputs.Base+uint64(i*8), r.fbits(0, 1))
			}
		},
	}
}

// buildFir is the StreamIt FIR filter: the producer streams samples; the
// consumer runs a 6-tap delay line (both a direct and a loop-carried use
// of the sample cross the pipeline, as in the hand-parallelized StreamIt
// version).
func buildFir() *Benchmark {
	const n = 1500
	a := newAlloc()
	samples := a.Alloc("fir.samples", n*8)
	out := a.Alloc("fir.out", 128)

	taps := []float64{0.128, 0.244, 0.371, 0.371, 0.244, 0.128}

	l := ir.NewLoop("fir")
	idx := counted(l, n)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(samples.Base)))
	x := l.Load(&samples, ir.V(addr), 0)

	// Delay line: d1 is last iteration's sample, d2 the one before, ...
	d1 := l.Op(isa.Mov, ir.Carried(x, 0))
	d2 := l.Op(isa.Mov, ir.Carried(d1, 0))
	d3 := l.Op(isa.Mov, ir.Carried(d2, 0))
	d4 := l.Op(isa.Mov, ir.Carried(d3, 0))
	d5 := l.Op(isa.Mov, ir.Carried(d4, 0))
	delays := []*ir.Node{x, d1, d2, d3, d4, d5}

	var y *ir.Node
	for i, tap := range taps {
		m := l.Op(isa.FMul, ir.V(delays[i]), ir.C(int64(math.Float64bits(tap))))
		if y == nil {
			y = m
		} else {
			y = l.Op(isa.FAdd, ir.V(y), ir.V(m))
		}
	}
	acc := l.Acc(isa.FAdd, ir.V(y), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(acc))

	return &Benchmark{
		Name: "fir", Suite: "StreamIt", Function: "fir", ExecPct: 100,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(7)
			for i := 0; i < n; i++ {
				img.Write8(samples.Base+uint64(i*8), r.fbits(-1, 1))
			}
		},
	}
}

// buildFft2 is the StreamIt fft2 butterfly: four FP values cross the
// pipeline each iteration; the consumer computes the radix-2 butterfly
// with a twiddle multiply and accumulates checksums.
func buildFft2() *Benchmark {
	const n = 1500
	a := newAlloc()
	reA := a.Alloc("fft2.reA", n*8)
	imA := a.Alloc("fft2.imA", n*8)
	reB := a.Alloc("fft2.reB", n*8)
	imB := a.Alloc("fft2.imB", n*8)
	out := a.Alloc("fft2.out", 128)

	cosW := int64(math.Float64bits(0.92387953251))
	sinW := int64(math.Float64bits(0.38268343236))

	l := ir.NewLoop("fft2")
	idx := counted(l, n)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	arA := l.Op(isa.AddI, ir.V(off), ir.C(int64(reA.Base)))
	aiA := l.Op(isa.AddI, ir.V(off), ir.C(int64(imA.Base)))
	arB := l.Op(isa.AddI, ir.V(off), ir.C(int64(reB.Base)))
	aiB := l.Op(isa.AddI, ir.V(off), ir.C(int64(imB.Base)))
	ar := l.Load(&reA, ir.V(arA), 0)
	ai := l.Load(&imA, ir.V(aiA), 0)
	br := l.Load(&reB, ir.V(arB), 0)
	bi := l.Load(&imB, ir.V(aiB), 0)

	sumR := l.Op(isa.FAdd, ir.V(ar), ir.V(br))
	sumI := l.Op(isa.FAdd, ir.V(ai), ir.V(bi))
	difR := l.Op(isa.FSub, ir.V(ar), ir.V(br))
	difI := l.Op(isa.FSub, ir.V(ai), ir.V(bi))
	m1 := l.Op(isa.FMul, ir.V(difR), ir.C(cosW))
	m2 := l.Op(isa.FMul, ir.V(difI), ir.C(sinW))
	m3 := l.Op(isa.FMul, ir.V(difR), ir.C(sinW))
	m4 := l.Op(isa.FMul, ir.V(difI), ir.C(cosW))
	twR := l.Op(isa.FSub, ir.V(m1), ir.V(m2))
	twI := l.Op(isa.FAdd, ir.V(m3), ir.V(m4))

	accR := l.Acc(isa.FAdd, ir.V(sumR), 0)
	accI := l.Acc(isa.FAdd, ir.V(sumI), 0)
	accT := l.Acc(isa.FAdd, ir.V(twR), 0)
	accU := l.Acc(isa.FAdd, ir.V(twI), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(accR))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(accI))
	l.Store(&out, ir.C(int64(out.Base)), 16, ir.V(accT))
	l.Store(&out, ir.C(int64(out.Base)), 24, ir.V(accU))

	return &Benchmark{
		Name: "fft2", Suite: "StreamIt", Function: "fft2", ExecPct: 100,
		Iterations: n, Loop: l, Out: out, InputRegions: a.Regions(),
		setup: func(img *mem.Memory) {
			r := newRng(8)
			for i := 0; i < n; i++ {
				img.Write8(reA.Base+uint64(i*8), r.fbits(-1, 1))
				img.Write8(imA.Base+uint64(i*8), r.fbits(-1, 1))
				img.Write8(reB.Base+uint64(i*8), r.fbits(-1, 1))
				img.Write8(imB.Base+uint64(i*8), r.fbits(-1, 1))
			}
		},
	}
}
