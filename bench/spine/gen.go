package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"hfstream"
	"hfstream/internal/design"
	"hfstream/internal/workloads"
)

// Everything the program under test receives is generated here from the
// seed: which cells, in which order, from which client. The program gets
// the generated specs and configs and never the seed itself.

// cell is one (benchmark, design) point, in both the forms the layers
// take it: a design.Config for the kernel entry points and a Spec for the
// library and the service.
type cell struct {
	Bench string
	Cfg   design.Config // zero for Single
	Spec  hfstream.Spec
}

func (c cell) String() string {
	if c.Spec.Single {
		return c.Bench + "/SINGLE"
	}
	return c.Bench + "/" + c.Cfg.Name()
}

// group names the design family a cell's simulator speed is filed under.
func (c cell) group() string {
	switch {
	case c.Spec.Single, c.Cfg.SoftwareQueues():
		return "swq"
	case c.Cfg.Parallel:
		return "mpmc"
	case c.Cfg.Point == design.HeavyWT:
		return "heavywt"
	default:
		return "syncopti"
	}
}

// cores is the number of simulated cores the cell runs on.
func (c cell) cores() int {
	switch {
	case c.Spec.Single:
		return 1
	case c.Cfg.Cores >= 3:
		return c.Cfg.Cores
	default:
		return 2
	}
}

func pairCell(bench string, cfg design.Config) cell {
	return cell{Bench: bench, Cfg: cfg, Spec: hfstream.Spec{Bench: bench, Design: cfg.Name()}}
}

// ncoreBenches are the kernels with a loop IR; bzip2 is hand-partitioned
// and mcf's dependence structure fills no deeper pipeline.
var ncoreBenches = []string{"art", "equake", "adpcmdec", "epicdec", "wc", "fir", "fft2"}

// matrixCells is the paper's evaluation: 9 benchmarks x 7 designs.
func matrixCells() []cell {
	var cells []cell
	for _, b := range workloads.All() {
		for _, cfg := range design.StandardConfigs() {
			cells = append(cells, pairCell(b.Name, cfg))
		}
	}
	return cells
}

// ncoreCells is the N-core grid before filtering: two chain families and
// the parallel-stage family at 3, 4 and 6 cores.
func ncoreCells() []cell {
	var cells []cell
	for _, b := range ncoreBenches {
		for _, cfg := range []design.Config{design.SyncOptiSCQ64Config(), design.HeavyWTConfig(), design.MPMCQ64Config()} {
			for _, k := range []int{3, 4, 6} {
				cells = append(cells, pairCell(b, cfg.WithCores(k)))
			}
		}
	}
	return cells
}

// refereeCells are the cells re-run with fast-forward off and traced.
func refereeCells() []cell {
	var cells []cell
	for _, b := range []string{"bzip2", "adpcmdec", "equake", "wc"} {
		for _, cfg := range design.StandardConfigs() {
			cells = append(cells, pairCell(b, cfg))
		}
	}
	return cells
}

// hotCells are the 72 cells the hot server holds: the matrix plus each
// benchmark's single-threaded baseline.
func hotCells() []cell {
	cells := matrixCells()
	for _, b := range workloads.All() {
		cells = append(cells, cell{Bench: b.Name, Spec: hfstream.Spec{Bench: b.Name, Single: true}})
	}
	return cells
}

// mixCells are the 114 cells of serve_mix and cluster3: the hot 72 plus 42
// N-core names, which reach the service only through design names.
func mixCells() []cell {
	cells := hotCells()
	for _, b := range ncoreBenches {
		for _, cfg := range []design.Config{
			design.SyncOptiSCQ64Config().WithCores(3), design.SyncOptiSCQ64Config().WithCores(4),
			design.HeavyWTConfig().WithCores(3), design.HeavyWTConfig().WithCores(4),
			design.MPMCConfig(), design.MPMCQ64Config(),
		} {
			cells = append(cells, pairCell(b, cfg))
		}
	}
	return cells
}

// subSeed derives an independent stream for one purpose from the run's
// seed, so adding a draw in one place never shifts another.
func subSeed(seed int64, label string, idx ...int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	for _, i := range idx {
		fmt.Fprintf(h, "/%d", i)
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// opKind says how a service op is sent.
type opKind uint8

const (
	opRun    opKind = iota // client.Run
	opStream               // client.RunStream (NDJSON with progress)
)

// genOp is one generated op: a cell, how to send it, where to send it and
// which provenance it must come back with.
type genOp struct {
	Cell    int    // index into the workload's cell list
	Kind    opKind // service workloads
	Replica int    // cluster3: the replica the op goes to
	Want    string // expected X-Hfserve-Cache provenance ("" = kernel op)
	Mode    string // referee: "ffoff" or "sink"
}

// passOps is one seeded-shuffled pass over n cells.
func passOps(seed int64, label string, part, round, n int) []genOp {
	ops := make([]genOp, n)
	for i, c := range subSeed(seed, label, part, round).Perm(n) {
		ops[i] = genOp{Cell: c}
	}
	return ops
}

// refereeOps is one pass in which every cell runs once with fast-forward
// off and once with a trace sink, in seeded order.
func refereeOps(seed int64, part, round, n int) []genOp {
	ops := make([]genOp, 0, 2*n)
	for _, i := range subSeed(seed, "referee", part, round).Perm(2 * n) {
		mode := "ffoff"
		if i%2 == 1 {
			mode = "sink"
		}
		ops = append(ops, genOp{Cell: i / 2, Mode: mode})
	}
	return ops
}

// zipfS is the skew of every Zipf draw in the service workloads.
const zipfS = 1.1

// hotOps is one client's round on the hot server: n Zipf(1.1) draws over
// the cells. Which cells are popular is part of the workload, a fixed
// shuffle that mixes benchmarks and designs, and not of the seed: bodies
// differ in size, so a ranking that moved with the seed would move
// alloc_kb_per_op and the latencies with it. The seed decides the draws.
func hotOps(seed int64, part, round, client, cells, n int) []genOp {
	rank := subSeed(0, "hot-rank").Perm(cells)
	r := subSeed(seed, "hot", part, round, client)
	z := rand.NewZipf(r, zipfS, 1, uint64(cells-1))
	ops := make([]genOp, n)
	for i := range ops {
		ops[i] = genOp{Cell: rank[z.Uint64()], Want: "hit"}
	}
	return ops
}

// splitKeys deals a seeded shuffle of the cells to the clients in equal
// shares: each key belongs to one client, so its cold op and its hits
// never race and every op's provenance is known in advance.
func splitKeys(r *rand.Rand, cells, clients int) [][]int {
	out := make([][]int, clients)
	for i, c := range r.Perm(cells) {
		out[i%clients] = append(out[i%clients], c)
	}
	return out
}

// slot places a generated op on a client's timeline; inOrder sorts the
// slots and keeps the ops. The sort is stable, so ops at equal positions
// keep the order they were generated in.
type slot struct {
	at float64
	op genOp
}

func inOrder(slots []slot) []genOp {
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	ops := make([]genOp, len(slots))
	for i, s := range slots {
		ops[i] = s.op
	}
	return ops
}

// mixGap is the largest Zipf distance, in cold-op slots, between a key's
// cold op and one of its hits.
const mixGap = 16

// mixOps is an epoch of serve_mix for every client: per key one cold op
// (every fourth one streamed) and then three hits, each a Zipf distance
// after the one before. Exactly a quarter of the ops are cold.
func mixOps(seed int64, part, round, cells, clients int) [][]genOp {
	keys := splitKeys(subSeed(seed, "mix-keys", part, round), cells, clients)
	out := make([][]genOp, clients)
	for c, mine := range keys {
		r := subSeed(seed, "mix", part, round, c)
		z := rand.NewZipf(r, zipfS, 1, mixGap-1)
		var slots []slot
		for i, k := range mine {
			kind := opRun
			if i%4 == 3 {
				kind = opStream
			}
			at := float64(i)
			slots = append(slots, slot{at, genOp{Cell: k, Kind: kind, Want: "miss"}})
			for h := 0; h < 3; h++ {
				at += float64(z.Uint64()) + 0.5
				slots = append(slots, slot{at, genOp{Cell: k, Want: "hit"}})
			}
		}
		out[c] = inOrder(slots)
	}
	return out
}

// clusterOps is an epoch of cluster3 for every client: per key an op at
// its primary owner (a miss), one at the replica that does not own it (a
// peer fill) and one more there (a local hit), the later ones a Zipf
// distance behind. owners gives each cell's owner replicas, primary
// first; with three replicas and replication two exactly one is left.
func clusterOps(seed int64, part, round, clients int, owners [][]int) [][]genOp {
	keys := splitKeys(subSeed(seed, "cluster-keys", part, round), len(owners), clients)
	out := make([][]genOp, clients)
	for c, mine := range keys {
		r := subSeed(seed, "cluster", part, round, c)
		z := rand.NewZipf(r, zipfS, 1, mixGap-1)
		var slots []slot
		for i, k := range mine {
			other := 3 - owners[k][0] - owners[k][1] // replicas are 0, 1, 2
			at := float64(i)
			slots = append(slots, slot{at, genOp{Cell: k, Replica: owners[k][0], Want: "miss"}})
			for _, want := range []string{"peer", "hit"} {
				at += float64(z.Uint64()) + 0.5
				slots = append(slots, slot{at, genOp{Cell: k, Replica: other, Want: want}})
			}
		}
		out[c] = inOrder(slots)
	}
	return out
}
