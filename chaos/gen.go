package chaos

import (
	"fmt"
	"math/rand"
	"strings"
)

// The generator emits seeded producer/consumer kernel pairs in the text
// assembly RunPrograms accepts. Programs are deliberately simple — fixed
// iteration counts, matched per-queue order, registers r1-r8 only (the
// software-queue lowering claims scratch registers from r50 up) — so that
// every generated pair runs on all seven design points and has an exact
// functional oracle. The interesting part of a chaos run is the fault
// plan, not the program; the program's job is to keep enough traffic on
// every protocol path that a severed link is guaranteed to starve
// someone.

// Address map for generated programs. The streaming queue region lives at
// 0x4000_0000_0000, far above these.
const (
	genTableBase = 0x4000 // per-queue input tables (table mode)
	genTableStep = 0x2000 // table region per queue
	genOutBase   = 0x8000 // per-queue sum/xor output pairs
	genOutStep   = 0x20
)

// genCase is one generated workload: assembly text per core, the initial
// memory image, and the output words to check against the oracle. Pair
// workloads (seeds below mpmcSeedBase) fill producer/consumer; MPMC
// workloads fill programs (producers first, then consumers) and set mpmc.
type genCase struct {
	name     string
	producer string
	consumer string
	programs []string
	init     map[uint64]uint64
	outAddrs []uint64
	counts   []int
	mpmc     bool
	nProd    int
	nCons    int
}

// mpmcSeedBase splits the seed space: seeds at or above it generate
// shared-queue MPMC topologies instead of producer/consumer pairs. The
// workload is a pure function of the seed, so the same replay commands
// (hfchaos -seeds N) cover both families.
const mpmcSeedBase = 100

// generate builds the workload for a seed. Same seed, same workload —
// chaos failures replay bit-exactly from (seed, plan, design).
func generate(seed int64) genCase {
	if seed >= mpmcSeedBase {
		return generateMPMC(seed)
	}
	rng := rand.New(rand.NewSource(seed))
	nq := 1 + rng.Intn(2)
	g := genCase{
		name: fmt.Sprintf("chaos-%d", seed),
		init: map[uint64]uint64{},
	}
	var prod, cons strings.Builder
	prod.WriteString(fmt.Sprintf("; generated producer, seed %d\n", seed))
	cons.WriteString(fmt.Sprintf("; generated consumer, seed %d\n", seed))
	for q := 0; q < nq; q++ {
		// Enough items per queue that any sticky loss starves the other
		// side long before the program could finish.
		count := 144 + rng.Intn(64)
		g.counts = append(g.counts, count)
		table := rng.Intn(2) == 1
		if table {
			base := uint64(genTableBase + q*genTableStep)
			for i := 0; i < count; i++ {
				g.init[base+uint64(i)*8] = rng.Uint64() >> 16
			}
			prod.WriteString(fmt.Sprintf("movi r3, %d\nmovi r2, %d\n", base, count))
			prod.WriteString(fmt.Sprintf("pq%d:\n", q))
			prod.WriteString("ld r1, [r3+0]\n")
			prod.WriteString(fmt.Sprintf("produce q%d, r1\n", q))
			prod.WriteString("addi r3, r3, 8\naddi r2, r2, -1\n")
			prod.WriteString(fmt.Sprintf("bnez r2, pq%d\n", q))
		} else {
			base := 1 + rng.Intn(100)
			step := 1 + rng.Intn(7)
			prod.WriteString(fmt.Sprintf("movi r1, %d\nmovi r2, %d\n", base, count))
			prod.WriteString(fmt.Sprintf("pq%d:\n", q))
			prod.WriteString(fmt.Sprintf("produce q%d, r1\n", q))
			prod.WriteString(fmt.Sprintf("addi r1, r1, %d\naddi r2, r2, -1\n", step))
			prod.WriteString(fmt.Sprintf("bnez r2, pq%d\n", q))
		}
		out := uint64(genOutBase + q*genOutStep)
		g.outAddrs = append(g.outAddrs, out, out+8)
		cons.WriteString(fmt.Sprintf("movi r4, 0\nmovi r5, 0\nmovi r2, %d\n", count))
		cons.WriteString(fmt.Sprintf("cq%d:\n", q))
		cons.WriteString(fmt.Sprintf("consume r1, q%d\n", q))
		cons.WriteString("add r4, r4, r1\nxor r5, r5, r1\naddi r2, r2, -1\n")
		cons.WriteString(fmt.Sprintf("bnez r2, cq%d\n", q))
		cons.WriteString(fmt.Sprintf("movi r6, %d\nst [r6+0], r4\nst [r6+8], r5\n", out))
	}
	prod.WriteString("halt\n")
	cons.WriteString("halt\n")
	g.producer = prod.String()
	g.consumer = cons.String()
	return g
}

// mpmcShapes are the (producers, consumers) topologies MPMC seeds draw
// from. Endpoint counts stay in {1, 2, 4} so they divide every standard
// queue depth (32 and 64 slots), and P+C stays within the custom-machine
// core cap.
var mpmcShapes = [][2]int{{2, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 2}}

// generateMPMC builds a shared-queue workload: P producers and C
// consumers on queue 0 under the ticket discipline (item k goes to
// consumer k mod C as its k div C-th consume), so each consumer's value
// sequence — and therefore its order-sensitive checksum — is fully
// determined regardless of interleaving. Producer i contributes every
// P-th item starting at ticket i.
func generateMPMC(seed int64) genCase {
	rng := rand.New(rand.NewSource(seed))
	shape := mpmcShapes[rng.Intn(len(mpmcShapes))]
	p, c := shape[0], shape[1]
	// Item count: at or above the pair generator's starvation floor,
	// rounded up so both endpoint counts divide it.
	unit := p * c
	count := 144 + rng.Intn(64)
	count = (count + unit - 1) / unit * unit
	g := genCase{
		name:   fmt.Sprintf("chaos-mpmc-%d", seed),
		init:   map[uint64]uint64{},
		counts: []int{count},
		mpmc:   true,
		nProd:  p,
		nCons:  c,
	}
	for i := 0; i < p; i++ {
		base := 1 + rng.Intn(100)
		step := 1 + rng.Intn(7)
		var b strings.Builder
		fmt.Fprintf(&b, "; generated MPMC producer %d/%d, seed %d\n", i, p, seed)
		fmt.Fprintf(&b, "movi r1, %d\nmovi r2, %d\n", base, count/p)
		b.WriteString("pq0:\n")
		b.WriteString("produce q0, r1\n")
		fmt.Fprintf(&b, "addi r1, r1, %d\naddi r2, r2, -1\n", step)
		b.WriteString("bnez r2, pq0\n")
		b.WriteString("halt\n")
		g.programs = append(g.programs, b.String())
	}
	for j := 0; j < c; j++ {
		out := uint64(genOutBase + j*genOutStep)
		g.outAddrs = append(g.outAddrs, out, out+8, out+16)
		var b strings.Builder
		fmt.Fprintf(&b, "; generated MPMC consumer %d/%d, seed %d\n", j, c, seed)
		fmt.Fprintf(&b, "movi r4, 0\nmovi r5, 0\nmovi r7, 0\nmovi r2, %d\n", count/c)
		b.WriteString("cq0:\n")
		b.WriteString("consume r1, q0\n")
		// Sum, xor, and an order-sensitive prefix checksum: the last one
		// fails if the ticket discipline ever delivers out of order.
		b.WriteString("add r4, r4, r1\nxor r5, r5, r1\nadd r7, r7, r4\naddi r2, r2, -1\n")
		b.WriteString("bnez r2, cq0\n")
		fmt.Fprintf(&b, "movi r6, %d\nst [r6+0], r4\nst [r6+8], r5\nst [r6+16], r7\n", out)
		b.WriteString("halt\n")
		g.programs = append(g.programs, b.String())
	}
	return g
}
