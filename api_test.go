package hfstream

import (
	"errors"
	"strings"
	"testing"
)

func TestDesignsRoundTrip(t *testing.T) {
	ds := Designs()
	if len(ds) != 7 {
		t.Fatalf("got %d designs, want 7", len(ds))
	}
	for _, d := range ds {
		got, err := DesignByName(d.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != d.Name() {
			t.Errorf("round trip %q -> %q", d.Name(), got.Name())
		}
	}
	if _, err := DesignByName("nope"); err == nil {
		t.Error("expected error for unknown design")
	}
}

// TestDesignByNameTable covers every enumerated name, the parametrized
// NETQUEUE_<h>hop forms, and the rejects — the full resolution contract,
// which TestDesignsRoundTrip only samples.
func TestDesignByNameTable(t *testing.T) {
	resolves := []struct {
		name string
		want string // resolved Name(); "" means same as name
	}{
		{name: "EXISTING"},
		{name: "MEMOPTI"},
		{name: "SYNCOPTI"},
		{name: "SYNCOPTI_Q64"},
		{name: "SYNCOPTI_SC"},
		{name: "SYNCOPTI_SC+Q64"},
		{name: "HEAVYWT"},
		{name: "REGMAPPED"},
		{name: "HEAVYWT_CENTRAL"},
		{name: "NETQUEUE_1hop"},
		{name: "NETQUEUE_2hop"},
		{name: "NETQUEUE_16hop"},
		{name: "MPMC"},
		{name: "MPMC_Q64"},
		{name: "SYNCOPTI_SC+Q64_4CORE"},
		{name: "NETQUEUE_2hop_8CORE"},
		{name: "MPMC_Q64_3CORE"},
		{name: "MPMC_4CORE", want: "MPMC"}, // the point's own count
	}
	for _, tc := range resolves {
		d, err := DesignByName(tc.name)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.name
		}
		if d.Name() != want {
			t.Errorf("%s resolved to %q, want %q", tc.name, d.Name(), want)
		}
	}

	rejects := []string{
		"",
		"existing",            // names are case-sensitive paper labels
		" EXISTING",           // no trimming
		"SYNCOPTI_SC+Q64 ",    // no trimming
		"SYNCOPTI-SC",         // wrong separator
		"NETQUEUE_0hop",       // hops start at 1
		"NETQUEUE_-1hop",      // negative hops
		"NETQUEUE_hop",        // missing count
		"NETQUEUE_xhop",       // non-numeric count
		"NETQUEUE_2",          // missing suffix
		"NETQUEUE_2hops",      // wrong suffix
		"HEAVYWT_CENTRAL_4",   // latency is not encodable in the name
		"SINGLE",              // a result annotation, not a design
		"totally-made-up",     // arbitrary garbage
		"HEAVYWT_2CORE",       // the bare name is the dual-core machine
		"MPMC_2CORE",          // a merger needs two workers
		"HEAVYWT_1CORE",       // below the range
		"HEAVYWT_9CORE",       // past the cap
		"HEAVYWT_3CORE_4CORE", // exactly one suffix
		"MPMC_4CORE_4CORE",
		"_3CORE", // no base
		"HEAVYWT_CORE",
	}
	for _, name := range rejects {
		if _, err := DesignByName(name); err == nil {
			t.Errorf("DesignByName(%q) succeeded, want error", name)
		}
	}
}

// TestDesignNameRoundTrips: core count lives in the design alone, so the
// name a design renders must resolve back to it — for every standard,
// §3-variant and parallel-stage point at every core count it can run.
func TestDesignNameRoundTrips(t *testing.T) {
	bases := append(Designs(), RegMapped(), NetQueue(3), CentralizedStore(centralConsumeToUse), MPMC, MPMCQ64)
	for _, base := range bases {
		if got := base.WithCores(base.Cores()); got.Name() != base.Name() {
			t.Errorf("%s.WithCores(%d) renamed it %s", base.Name(), base.Cores(), got.Name())
		}
		lo := 2
		if base.ParallelStage() {
			lo = 3
		}
		for k := lo; k <= 8; k++ {
			d := base.WithCores(k)
			got, err := DesignByName(d.Name())
			if err != nil {
				t.Errorf("%s at %d cores: DesignByName(%q): %v", base.Name(), k, d.Name(), err)
				continue
			}
			if got != d {
				t.Errorf("DesignByName(%q) = %+v, want %+v", d.Name(), got, d)
			}
		}
	}
}

// TestDesignByNameErrorEnumeratesNames pins the "enumerates all valid
// names" promise: the error for an unknown design must list every
// accepted form, exactly as DesignNames reports them.
func TestDesignByNameErrorEnumeratesNames(t *testing.T) {
	_, err := DesignByName("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	names := DesignNames()
	if len(names) != 13 {
		t.Fatalf("DesignNames has %d entries, want 13 (7 standard + 3 variants + MPMC, MPMC_Q64 and the _<k>CORE form)", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("DesignNames lists %q twice", n)
		}
		seen[n] = true
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not mention %q", err, n)
		}
	}
	for _, want := range []string{"REGMAPPED", "NETQUEUE_<h>hop", "HEAVYWT_CENTRAL",
		"MPMC", "MPMC_Q64", "<design>_<k>CORE"} {
		if !seen[want] {
			t.Errorf("DesignNames missing variant form %q", want)
		}
	}
	for _, d := range Designs() {
		if !seen[d.Name()] {
			t.Errorf("DesignNames missing standard point %q", d.Name())
		}
	}
}

func TestBenchmarksRoundTrip(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 9 {
		t.Fatalf("got %d benchmarks, want 9", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name()] = true
		if b.Iterations() <= 0 {
			t.Errorf("%s: non-positive iterations", b.Name())
		}
		if b.Suite() == "" || b.Function() == "" {
			t.Errorf("%s: missing metadata", b.Name())
		}
	}
	for _, want := range []string{"art", "equake", "mcf", "bzip2", "adpcmdec", "epicdec", "wc", "fir", "fft2"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

// BenchmarkByName hands every caller the process's one instance of a
// workload (a served miss used to rebuild it), and an unknown name keeps
// the catalog's error text.
func TestBenchmarkByNameShares(t *testing.T) {
	a, err := BenchmarkByName("fft2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchmarkByName("fft2")
	if err != nil {
		t.Fatal(err)
	}
	if a.b != b.b {
		t.Error("two BenchmarkByName calls built two instances")
	}
	const want = `workloads: unknown benchmark "nope" (have: art equake mcf bzip2 adpcmdec epicdec wc fir fft2)`
	if _, err := BenchmarkByName("nope"); err == nil || err.Error() != want {
		t.Errorf("unknown name: %v\nwant: %s", err, want)
	}
}

// Benchmarks() lists the instances BenchmarkByName returns, so listing the
// suite builds nothing a run has not built already.
func TestBenchmarksShareByName(t *testing.T) {
	for _, b := range Benchmarks() {
		one, err := BenchmarkByName(b.Name())
		if err != nil {
			t.Fatal(err)
		}
		if one.b != b.b {
			t.Errorf("%s: Benchmarks() and BenchmarkByName wrap two instances", b.Name())
		}
	}
}

// fromSim copies the per-core counts with three allocations, one array
// cut into four slices, the breakdowns and the stall summaries, plus what
// each summary's text takes; the ceilings are the measured counts. Growing
// the two slices by append took 25 allocations at two cores and 33 at
// four.
func TestFromSimAllocations(t *testing.T) {
	b, err := BenchmarkByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		design  string // "" for the single-threaded baseline
		ceiling float64
	}{{"", 12}, {"SYNCOPTI", 24}, {"HEAVYWT_4CORE", 30}} {
		var res Result
		if c.design == "" {
			res, err = RunSingleThreaded(b)
		} else {
			var d Design
			if d, err = DesignByName(c.design); err == nil {
				res, err = Run(b, d)
			}
		}
		if err != nil {
			t.Fatalf("%q: %v", c.design, err)
		}
		if got := testing.AllocsPerRun(20, func() { fromSim(res.res) }); got > c.ceiling {
			t.Errorf("%q: fromSim made %.0f allocations, want at most %.0f", c.design, got, c.ceiling)
		}
	}
}

func TestExtensionDesigns(t *testing.T) {
	b, err := BenchmarkByName("epicdec")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{RegMapped(), NetQueue(2), CentralizedStore(4)} {
		res, err := Run(b, d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if res.Cycles == 0 {
			t.Errorf("%s: zero cycles", d.Name())
		}
	}
	// Centralized store must cost cycles relative to the distributed one.
	dist, err := Run(b, HeavyWT)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := Run(b, CentralizedStore(8))
	if err != nil {
		t.Fatal(err)
	}
	if cent.Cycles <= dist.Cycles {
		t.Errorf("centralized (%d) should be slower than distributed (%d)", cent.Cycles, dist.Cycles)
	}
}

// TestRunWithCores: a core count is spelled by the design, and the run
// follows it.
func TestRunWithCores(t *testing.T) {
	b, err := BenchmarkByName("adpcmdec")
	if err != nil {
		t.Fatal(err)
	}
	three, err := Run(b, SyncOptiSCQ64.WithCores(3))
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(b, SyncOptiSCQ64)
	if err != nil {
		t.Fatal(err)
	}
	if len(three.Breakdowns) != 3 {
		t.Fatalf("got %d cores", len(three.Breakdowns))
	}
	if three.Cycles >= two.Cycles {
		t.Errorf("3-stage (%d) should beat 2-stage (%d) on adpcmdec", three.Cycles, two.Cycles)
	}
	// bzip2 is hand-partitioned: runs past two cores are rejected cleanly.
	bz, err := BenchmarkByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(bz, HeavyWT.WithCores(3)); err == nil {
		t.Error("bzip2 3-core run should be rejected")
	}
}

func TestRunPublicAPI(t *testing.T) {
	b, err := BenchmarkByName("epicdec")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b, HeavyWT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if len(res.Breakdowns) != 2 {
		t.Fatalf("got %d breakdowns, want 2", len(res.Breakdowns))
	}
	for i, bd := range res.Breakdowns {
		if bd.Total() == 0 {
			t.Errorf("core %d: empty breakdown", i)
		}
	}
	if r := res.CommRatio(1); r <= 0 || r > 1 {
		t.Errorf("consumer comm ratio %v out of range", r)
	}

	single, err := RunSingleThreaded(b)
	if err != nil {
		t.Fatal(err)
	}
	if single.Cycles <= res.Cycles {
		t.Errorf("single (%d) should be slower than HEAVYWT pipeline (%d)", single.Cycles, res.Cycles)
	}
}

func TestDesignKnobs(t *testing.T) {
	d := HeavyWT.WithInterconnectLatency(10)
	b, err := BenchmarkByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(b, HeavyWT)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(b, d)
	if err != nil {
		t.Fatal(err)
	}
	if float64(slow.Cycles) < float64(fast.Cycles)*1.05 {
		t.Errorf("bzip2 should slow down at 10-cycle transit: %d vs %d", slow.Cycles, fast.Cycles)
	}
	// A latency or consume-to-use distance below one cycle is no machine:
	// the run fails validation and the error names the knob, rather than
	// quietly running the default HEAVYWT.
	for _, c := range []struct {
		d    Design
		knob string
	}{
		{HeavyWT.WithInterconnectLatency(0), "interconnect latency 0"},
		{HeavyWT.WithInterconnectLatency(-3), "interconnect latency -3"},
		{CentralizedStore(0), "consume-to-use latency 0"},
		{CentralizedStore(-1), "consume-to-use latency -1"},
	} {
		_, err := Run(b, c.d)
		var ve *ValidationError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("%s: error %v, want a *ValidationError naming %q", c.d.Name(), err, c.knob)
		}
	}

	slowBus := Existing.WithBus(4, 16, true)
	f, err := Run(b, Existing)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(b, slowBus)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles <= f.Cycles {
		t.Errorf("slow bus should cost cycles: %d vs %d", s.Cycles, f.Cycles)
	}
}

func TestCustomPrograms(t *testing.T) {
	prod, err := CompileAsm("prod", `
		movi r1, 1
		movi r2, 200
		movi r3, 1
	loop:
		produce q0, r1
		add  r1, r1, r3
		cmplt r4, r2, r1
		beqz r4, loop
		movi r5, 0
		produce q0, r5
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := CompileAsm("cons", `
		movi r1, 0
		movi r2, 4096
	loop:
		consume r3, q0
		beqz r3, done
		add  r1, r1, r3
		b loop
	done:
		st [r2+0], r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Len() == 0 || cons.Len() == 0 {
		t.Fatal("empty programs")
	}
	if !strings.Contains(prod.Disassemble(), "produce q0") {
		t.Error("disassembly missing produce")
	}

	want := uint64(200 * 201 / 2)
	oracle, err := Interpret([]*Program{prod, cons}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := oracle(4096); got != want {
		t.Fatalf("oracle sum = %d, want %d", got, want)
	}

	for _, d := range Designs() {
		run, err := RunPrograms(d, []*Program{prod, cons}, nil)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if got := run.Read(4096); got != want {
			t.Fatalf("%s: sum = %d, want %d", d.Name(), got, want)
		}
	}
}

func TestRunExperimentNames(t *testing.T) {
	for _, name := range []string{ExpTable1, ExpTable2, ExpFig3} {
		out, err := RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		if out == "" {
			t.Errorf("%s: empty output", name)
		}
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if len(ExperimentNames()) != 22 {
		t.Errorf("got %d experiments, want 22", len(ExperimentNames()))
	}
}
