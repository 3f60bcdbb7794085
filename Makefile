# Developer targets, one line each; EXPERIMENTS.md says what each battery
# proves and records the numbers (RESILIENCE.md for the chaos targets).
#
#   make tier1              build + vet + tests, docs_test.go's paths, targets and -run patterns too: the gate every PR keeps green
#   make refcut-check       rerun the DSWP reference cut search against internal/dswp/testdata/refcuts.txt
#   make spine-test         the nested bench/spine module's tests (tier1 does not enter it)
#   make spine              the repository's benchmark, every workload (bench/spine/README.md)
#   make spine-pairs BASE=<rev> WORKLOAD=<name>   ten parent/change pairs of it; fails on a loss beyond a BENCHMARK.json bound
#   make race               race-detector pass over mem, cache, memsys, exp, sim and serve
#   make coverage           coverage.out, failing under COVERAGE_BASELINE
#   make fmtcheck           gofmt -l must print nothing
#   make inline-check       the hot path's small functions (INLINE_FUNCS) must still inline
#   make golden             regenerate testdata/golden/ and internal/exp/testdata/experiments/ (EXPERIMENTS.md "Golden metrics snapshots", "Golden experiments")
#   make golden-check       rebuild the snapshots in a temp dir and diff them; re-render every experiment and compare
#   make golden-check-noff  the same with HFSTREAM_NO_FASTFORWARD=1
#   make serve-diff         served vs direct byte-identity (EXPERIMENTS.md "Differential battery")
#   make serve-diff-noff    the same with HFSTREAM_NO_FASTFORWARD=1
#   make serve-cluster      ring/peering under -race plus the cluster differential rows
#   make scaling            the differential grid's runner and serve rows under -race, N-core cells included (EXPERIMENTS.md "Differential battery")
#   make load-smoke         hfload against in-process 1- and 3-replica clusters
#   make gobench            one `go test -bench` pass over the reproduction benchmarks, then gobench-layers
#   make gobench-layers     the core, sim, dswp, mem, memsys, serve and trace layer benchmarks at 100x, sim on one P (CI runs it)
#   make chaos              full fault-injection sweep (RESILIENCE.md)
#   make chaos-smoke        the CI chaos corpus, fast-forward on and off
#   make chaos-cluster      service-tier chaos smoke under -race
#   make fuzz-smoke         30s of native fuzzing per target
#   make ci                 everything CI runs (BASE=<rev> for the spine-pairs gate; default HEAD~1)

GO ?= go

# Benchmarks covered by the golden metrics snapshots: the two fastest, so
# the check stays cheap enough to run on every push.
GOLDEN_BENCHES = bzip2,adpcmdec

# Total-statement coverage floor enforced by `make coverage`. The module
# measured 84.4% when the baseline was last raised; the floor sits a
# couple of points under that so timing-dependent branches don't flake the
# job, while still catching any real regression. Raise it as coverage
# grows.
COVERAGE_BASELINE = 82.0

.PHONY: tier1 vet build test refcut-check spine-test spine spine-pairs race coverage gobench gobench-layers ci fmtcheck inline-check golden golden-check golden-check-noff serve-diff serve-diff-noff serve-cluster load-smoke scaling chaos chaos-smoke chaos-cluster fuzz-smoke

tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The partitioner's exhaustive reference search (about 15 s), rerun on every
# case of internal/dswp/testdata/refcuts.txt. tier1 holds bestCut to the
# file and never runs the reference.
refcut-check:
	$(GO) test -count=1 -tags refcut -run TestReferenceCutsPinned ./internal/dswp

# bench/spine is its own module (replace hfstream => ../..), so `go test
# ./...` at the root never compiles it; it builds against internal/exp,
# internal/design and exp.Pool, and this is what notices when they move.
spine-test:
	cd bench/spine && $(GO) test ./...

spine:
	bash bench/spine/run.sh

# A/B protocol for a performance claim: BASE is checked out into a git
# worktree under .bench_build/, each tree runs its own bench/spine, and
# the pairs alternate which side goes first (bench/pairs). WORKLOAD takes
# a comma-separated list (empty: all six); OUT=<file> also writes a JSON
# report with every run made, adding to the pairs the file already holds.
# It is also the regression gate: the exit status is non-zero when the
# change's median of an end-to-end metric is worse than BASE's by more than
# the metric's bound in BENCHMARK.json, or the change failed a larger share
# of its operations. BENCH_PR14.json is matrix2, ncore and referee at the
# default ten pairs plus three pairs of each other workload:
#   make spine-pairs BASE=116731a WORKLOAD=matrix2,ncore,referee OUT=BENCH_PR14.json
PAIRS ?= 10
spine-pairs:
	$(GO) run ./bench/pairs -base "$(BASE)" -workload "$(WORKLOAD)" -pairs $(PAIRS) -out "$(OUT)"

# mem, cache and memsys are listed by name because the tree's one shared
# read-only image (mem.Fork's parent) and one process-wide pool (cache.New)
# live there; through internal/exp alone their own tests would not run.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/mem/... ./internal/cache/... ./internal/memsys/... ./internal/exp/... ./internal/sim/... ./serve/...

# The profile lands in coverage.out, which is git-ignored (see
# .gitignore) — inspect it with `go tool cover -html=coverage.out`.
coverage:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage regressed below the $(COVERAGE_BASELINE)% baseline"; exit 1; }

# The layer benchmarks (core.Tick issuing and stalled, Replay against
# Tick on a token and a full-queue stall, sim.Run on six cells — MEMOPTI's
# among them, whose allocs/op show its forward queue — plus one traced
# the way the referee workload traces, whose B/op is the trace
# ring's cost, the DSWP partitioner on three shapes, one L2 controller
# Tick over a steady SYNCOPTI OzQ of ten entries, a /v1/run cache hit on
# the server alone and through the client) live beside the code, outside
# the frozen bench/spine; CI runs gobench-layers so they keep compiling
# and running.
gobench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(MAKE) gobench-layers

# The layer benchmarks alone, the line CI runs. internal/sim runs on one P:
# with two, cache.New's pool misses an array released on the other P, so
# BenchmarkRunCell's B/op would not repeat.
gobench-layers:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/core ./internal/dswp ./internal/mem ./internal/memsys ./serve ./trace
	$(GO) test -run '^$$' -bench . -benchtime 100x -cpu 1 ./internal/sim

# The last step is CI's regression gate: the dual-core matrix, an N-core
# cell, the per-cycle kernel (referee: nothing else gated runs sim.Run
# with fast-forward off), a service number, the cache-hit path alone
# (serve_hot: no kernel work, so a cost in decode, key, cache or encode is
# not diluted by a simulation) and the peer tier (cluster3: nothing else
# gated runs PeerGet/PeerPut) against the parent commit.
ci: tier1 refcut-check spine-test race coverage fmtcheck inline-check golden-check golden-check-noff serve-diff serve-diff-noff serve-cluster load-smoke scaling chaos-smoke chaos-cluster
	$(MAKE) spine-pairs BASE=$(or $(BASE),HEAD~1) WORKLOAD=matrix2,ncore,referee,serve_mix,serve_hot,cluster3 PAIRS=3

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The kernel's per-cycle calls that must stay inlined. Each one's guard
# decides the common, nothing-to-do case at the call site, so a tick pays
# a compare and no call; an edit that pushes one past the compiler's
# inline budget fails here, naming the function.
INLINE_FUNCS = '(*Core).Done' '(*Core).Replay' '(*Core).FastForward' \
	'(*Core).NextWake' '(*Core).note' '(*Core).noteStall' \
	'(*Core).flushStallTrace' '(*Core).track' \
	'(*Controller).WakeAt' '(*Controller).noteWake' \
	'(*Controller).CanAccept' '(*Controller).takePort' 'entryWake' \
	'(*Token).Done' '(*Token).Complete' '(*Bus).WakeAt' '(*SyncArray).WakeAt' \
	'(*fifo[uint64]).push' '(*fifo[uint64]).pop' '(*fifo[uint64]).len' \
	'(*streamCache).take' '(*streamCache).fill'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/core ./internal/memsys ./internal/port ./internal/bus ./internal/queue 2>&1) || \
		{ echo "$$out"; exit 1; }; \
	can=$$(echo "$$out" | sed -n 's/^.*: can inline //p'); fail=0; \
	for f in $(INLINE_FUNCS); do \
		echo "$$can" | grep -qxF "$$f" || { echo "no longer inlines: $$f"; fail=1; }; \
	done; \
	[ $$fail = 0 ] && echo "hot path inlines"

# Two sets of goldens: full metrics snapshots for GOLDEN_BENCHES, and the
# rendered table of every exp.Catalog row (all nine benchmarks, every
# configuration and core count the evaluation simulates), which
# TestCatalogGolden compares byte for byte.
golden:
	$(GO) run ./cmd/hfexp -metrics testdata/golden -benches $(GOLDEN_BENCHES)
	$(GO) test ./internal/exp -run TestCatalogGolden -update

golden-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/hfexp -metrics "$$tmp" -benches $(GOLDEN_BENCHES) && \
	diff -ru testdata/golden "$$tmp" && echo "goldens match"
	$(GO) test -count=1 -run TestCatalogGolden ./internal/exp

# The goldens were produced with fast-forwarding on; regenerating them
# with it off and diffing proves the optimization changes no number — on
# all nine benchmarks, since the experiment goldens cover them.
golden-check-noff:
	HFSTREAM_NO_FASTFORWARD=1 $(MAKE) golden-check

# The serve differential battery: every path through the HTTP service —
# blocking /v1/run, streamed /v1/run?stream=ndjson (cold, cached,
# coalesced), and /v1/sweep cells — must produce metrics byte-identical
# to the direct library API, and re-submitted sweeps must only simulate
# cache misses.
serve-diff:
	$(GO) test -count=1 -run 'TestDifferential|TestStream|TestSweep|TestServe' . ./serve/

# The same battery with idle-cycle fast-forwarding disabled: streaming
# progress delivery and the FF optimization must both be invisible in
# the metrics bytes.
serve-diff-noff:
	HFSTREAM_NO_FASTFORWARD=1 $(MAKE) serve-diff

# Cluster correctness: ring balance/minimal-movement properties and the
# peering failure contract (owner death mid-fill degrades to local
# compute, zero request failures) under the race detector, then the
# cluster rows of the differential battery (3 replicas byte-identical to
# the direct API across cold/local-hit/peer-fill/coalesced, and a
# re-sweep across replicas simulating nothing).
serve-cluster:
	$(GO) test -count=1 -race ./serve/cluster/
	$(GO) test -count=1 -run 'TestDifferentialCluster' .

# hfload smoke: drive in-process 1- and 3-replica clusters unpaced and
# check that the 3-replica phase served something from the peer cache
# tier. The floor is a count because the ratio's denominator is how many
# requests the box got through. (Zero errors and zero shed on both phases
# is TestRunInprocPhases' assertion.)
load-smoke:
	$(GO) run ./cmd/hfload -scale 1,3 -duration 2s -conc 16 \
		-out /tmp/hfload_smoke.json -min-peer-hits 1

# The differential grid's runner and serve rows (differential_test.go),
# dual-core and TestScalingDifferential*, whose N-core cells are fft2/equake x {2,3,4,6,8}-core chains and
# parallel-stage points: every snapshot byte-identical across runner
# parallelism and a serve round trip — under the race detector, so the
# parallel pool's interleavings are exercised while equality is asserted.
scaling:
	$(GO) test -count=1 -race -run 'Test(Scaling)?Differential(SerialVsParallelRunner|ServeRoundTrip)' .

# Full chaos sweep: 20 seeded workloads x 7 designs x (1 baseline +
# 6 fault plans). Any failure prints a single-case replay command.
chaos:
	$(GO) run ./cmd/hfchaos -seed0 1 -n 20 -plans 6

# CI corpus (chaos/testdata/seeds.json): 255 runs — 6 pair seeds on all
# 7 designs plus 3 MPMC shared-queue seeds (>= 100) on the 3
# ticket-discipline designs — with fast-forwarding on and off: fault
# triggers are occurrence-based, so both must agree.
CHAOS_SEEDS = 1,2,3,4,5,6,101,102,103
chaos-smoke:
	$(GO) run ./cmd/hfchaos -seeds $(CHAOS_SEEDS) -plans 4
	HFSTREAM_NO_FASTFORWARD=1 $(GO) run ./cmd/hfchaos -seeds $(CHAOS_SEEDS) -plans 4

# Service-tier chaos smoke: the first corpus seed's scenario set (see
# chaos/testdata/cluster_seeds.json) against real faulted hfserve
# clusters, under the race detector and with a goroutine-leak check.
# The full corpus runs via `go run ./cmd/hfchaos -cluster -seeds 1,2,3`.
chaos-cluster:
	$(GO) test -count=1 -race -run 'TestClusterChaos' ./chaos/cluster/

# Short native-fuzz sessions over the user-reachable text pipelines, the
# two request decoders (the Spec schema, the service's body reader) and
# the DSWP partitioner (random loops x every pipeline shape == interp).
# The checked-in corpora under testdata/fuzz/ and the targets' seeds replay
# as ordinary tests; -run '^$$' keeps a package's unit tests from running
# ahead of its fuzz session.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime 30s ./internal/asm
	$(GO) test -run '^$$' -fuzz=FuzzLower -fuzztime 30s ./internal/lower
	$(GO) test -run '^$$' -fuzz=FuzzSpec -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz=FuzzDecodeBody -fuzztime 30s ./serve
	$(GO) test -run '^$$' -fuzz=FuzzPartition -fuzztime 30s ./internal/dswp
