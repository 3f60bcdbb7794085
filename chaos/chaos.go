// Package chaos is the fault-injection sweep harness: it runs seeded
// generated workloads under seeded fault plans across every design point
// and checks the robustness contract on each run — no panic, no hang, and
// either an oracle-correct result (fault-free and delay-class runs) or a
// typed detection carrying a populated diagnosis (loss-class runs).
// Everything is derived from integer seeds, so any failure replays
// bit-exactly from its (seed, plan, design) coordinates.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfstream"
	"hfstream/fault"
)

// Config parameterizes a sweep.
type Config struct {
	// Seeds selects the generated workloads; one workload per seed.
	Seeds []int64
	// PlansPerSeed is the number of fault plans run per (seed, design)
	// on top of the fault-free baseline (default 4: alternating
	// delay-class and loss-class plans).
	PlansPerSeed int
	// Designs defaults to all seven standard design points.
	Designs []hfstream.Design
	// Jobs is the worker-pool width (default GOMAXPROCS).
	Jobs int
	// Timeout bounds each individual run's wall-clock time (default 60s);
	// a run that hits it is reported as a hang, which is always a failure.
	Timeout time.Duration
	// Progress, when non-nil, is called serially after every run.
	Progress func(done, total int, o Outcome)
}

// Classification of a single chaos run. chaos/cluster adds the class of
// its own tier, loss-survived.
const (
	ClassBaselineOK   = "baseline-ok"   // fault-free run matched the oracle
	ClassDelayOK      = "delay-ok"      // delay plan fired; result still oracle-exact
	ClassLossDetected = "loss-detected" // loss plan fired; typed detection with diagnosis
	ClassLossBenign   = "loss-benign"   // loss plan found no injection site (software queues)
	ClassFail         = "fail"          // contract violation: panic, hang, silent corruption…
)

// Outcome is the classified result of one case of either tier: a kernel
// run on a design point, or a service-tier scenario on a cluster of
// Replicas hfserve instances.
type Outcome struct {
	Seed int64
	// Design names the design point of a kernel run; Replicas (> 0) is
	// the cluster size of a service-tier scenario.
	Design   string
	Replicas int
	// Plan renders the fault plan ("" for the baseline run); PlanIndex is
	// its index for replay (-1 for the baseline).
	Plan      string
	PlanIndex int
	Class     string
	// Detail explains failures and names the detection for loss runs.
	Detail string
	// Shots lists the fault shots that fired, in firing order.
	Shots []string
	// Errors counts a scenario's driver requests that ended in a typed
	// error (only ever non-zero under a loss plan), Retries the retries
	// its driver clients performed.
	Errors  int
	Retries uint64
	Wall    time.Duration
}

// Replay renders the hfchaos invocation that reruns exactly this case.
// The rendered string is meant to be pasted into a shell, so the design
// name is quoted: SYNCOPTI_SC+Q64 is harmless, but a custom design label
// with spaces or metacharacters would otherwise split or glob.
func (o Outcome) Replay() string {
	if o.Replicas > 0 {
		return fmt.Sprintf("go run ./cmd/hfchaos -cluster -seeds %d -plans %d -replicas %d -v",
			o.Seed, o.PlanIndex+1, o.Replicas)
	}
	return fmt.Sprintf("go run ./cmd/hfchaos -seeds %d -designs %s -plans %d -v",
		o.Seed, shellQuote(o.Design), o.PlanIndex+1)
}

// shellQuote renders s as a single POSIX-shell word. Strings made only of
// unambiguously safe characters pass through unchanged; anything else is
// wrapped in single quotes, with embedded single quotes spelled '\”.
func shellQuote(s string) string {
	if s == "" {
		return "''"
	}
	safe := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.ContainsRune("_@%+=:,./-", rune(c)):
		default:
			safe = false
		}
		if !safe {
			break
		}
	}
	if safe {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// Report aggregates a sweep.
type Report struct {
	Outcomes []Outcome
	Runs     int
	Failures int
}

// Failed returns the failing outcomes.
func (r *Report) Failed() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Class == ClassFail {
			out = append(out, o)
		}
	}
	return out
}

// String renders the class histogram and every failure with its replay
// command.
func (r *Report) String() string {
	byClass := map[string]int{}
	for _, o := range r.Outcomes {
		byClass[o.Class]++
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d runs, %d failures\n", r.Runs, r.Failures)
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-14s %d\n", c, byClass[c])
	}
	for _, o := range r.Failed() {
		on := "design=" + o.Design
		if o.Replicas > 0 {
			on = fmt.Sprintf("replicas=%d", o.Replicas)
		}
		fmt.Fprintf(&b, "FAIL seed=%d %s plan=%q: %s\n  replay: %s\n",
			o.Seed, on, o.Plan, o.Detail, o.Replay())
	}
	return b.String()
}

// Case is one cell of a sweep grid: Outcome arrives holding the cell's
// coordinates (seed, design or replicas, plan index), and Run executes
// the cell under ctx and classifies it into that outcome.
type Case struct {
	Outcome Outcome
	Run     func(ctx context.Context, o *Outcome)
}

// Run is the sweep driver of both tiers. It runs the cases on a pool of
// jobs workers (default GOMAXPROCS), each case under its own timeout
// (default 60s), and returns the outcomes in case order. A case that
// panics, or is still running when its timeout expires, is a failure. A
// case the caller's ctx kept from starting or cut short is no outcome at
// all: Run then returns the outcomes it has with ctx.Err(), and Runs
// counts the cases that ran. progress, when non-nil, is called serially
// after every outcome.
func Run(ctx context.Context, cases []Case, jobs int, timeout time.Duration, progress func(done, total int, o Outcome)) (*Report, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	outcomes := make([]*Outcome, len(cases))
	var next atomic.Int64
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cases) || ctx.Err() != nil {
					return
				}
				o := runCase(ctx, cases[i], timeout)
				if ctx.Err() != nil {
					return
				}
				outcomes[i] = &o
				mu.Lock()
				done++
				if progress != nil {
					progress(done, len(cases), o)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	rep := &Report{}
	for _, o := range outcomes {
		if o == nil {
			continue
		}
		rep.Outcomes = append(rep.Outcomes, *o)
		if o.Class == ClassFail {
			rep.Failures++
		}
	}
	rep.Runs = len(rep.Outcomes)
	return rep, ctx.Err()
}

// runCase runs one case under its deadline, timing it and turning a
// panic or an overrun into a failure.
func runCase(ctx context.Context, c Case, timeout time.Duration) (o Outcome) {
	o = c.Outcome
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	defer func() {
		o.Wall = time.Since(start)
		switch r := recover(); {
		case r != nil:
			o.Class, o.Detail = ClassFail, fmt.Sprintf("panic: %v", r)
		case errors.Is(cctx.Err(), context.DeadlineExceeded):
			hang := fmt.Sprintf("hang: run exceeded %v", timeout)
			if o.Detail != "" {
				hang += " (" + o.Detail + ")"
			}
			o.Class, o.Detail = ClassFail, hang
		}
	}()
	c.Run(cctx, &o)
	return o
}

// PlanForIndex derives the i-th fault plan for a workload seed (even
// indices are delay-class, odd loss-class). Exposed so replays and tests
// agree with the sweep on the derivation.
func PlanForIndex(seed int64, i int) fault.Plan {
	planSeed := seed*1000 + int64(i)
	if i%2 == 0 {
		return fault.RandomDelay(planSeed, 3)
	}
	return fault.RandomLoss(planSeed)
}

// Sweep runs the full (seed x design x plan) grid through Run and
// returns the classified report. Beyond Run's ctx.Err(), the error is
// non-nil only for setup problems (a seed whose generated program fails
// to compile or whose fault-free oracle fails); contract violations
// during the sweep are reported per-outcome, not as an error.
func Sweep(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("chaos: no seeds")
	}
	if cfg.PlansPerSeed == 0 {
		cfg.PlansPerSeed = 4
	}
	if len(cfg.Designs) == 0 {
		cfg.Designs = hfstream.Designs()
	}

	var cases []Case
	for _, seed := range cfg.Seeds {
		// Compile and interpret each seed's workload once; the oracle is
		// timing-free, so it is shared by every design and plan.
		w, err := prepare(seed)
		if err != nil {
			return nil, err
		}
		for _, d := range cfg.Designs {
			// MPMC topologies only run on designs that implement the
			// ticket discipline; the rest reject them statically with
			// MPMCUnsupportedError, which would never exercise a fault
			// plan, so those grid cells are skipped rather than run.
			if w.gen.mpmc && !d.SupportsMPMC() {
				continue
			}
			for i := -1; i < cfg.PlansPerSeed; i++ {
				cases = append(cases, Case{
					Outcome: Outcome{Seed: seed, Design: d.Name(), PlanIndex: i},
					Run:     func(ctx context.Context, o *Outcome) { runOne(ctx, w, d, o) },
				})
			}
		}
	}
	return Run(ctx, cases, cfg.Jobs, cfg.Timeout, cfg.Progress)
}

// workload is a compiled seed: programs, memory image seed, and the
// oracle values at the checked output words.
type workload struct {
	gen    genCase
	progs  []*hfstream.Program
	oracle map[uint64]uint64
}

func prepare(seed int64) (*workload, error) {
	g := generate(seed)
	var progs []*hfstream.Program
	if g.mpmc {
		for i, src := range g.programs {
			p, err := hfstream.CompileAsm(fmt.Sprintf("%s-c%d", g.name, i), src)
			if err != nil {
				return nil, fmt.Errorf("chaos: seed %d: program %d: %w", seed, i, err)
			}
			progs = append(progs, p)
		}
	} else {
		prod, err := hfstream.CompileAsm(g.name+"-prod", g.producer)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d: producer: %w", seed, err)
		}
		cons, err := hfstream.CompileAsm(g.name+"-cons", g.consumer)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d: consumer: %w", seed, err)
		}
		progs = []*hfstream.Program{prod, cons}
	}
	read, err := hfstream.Interpret(progs, g.init)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: oracle: %w", seed, err)
	}
	oracle := make(map[uint64]uint64, len(g.outAddrs))
	for _, a := range g.outAddrs {
		oracle[a] = read(a)
	}
	return &workload{gen: g, progs: progs, oracle: oracle}, nil
}

// runOne executes one (seed, design, plan) run and classifies it into o.
func runOne(ctx context.Context, w *workload, d hfstream.Design, o *Outcome) {
	var inj *fault.Injector
	var opts []hfstream.RunOpt
	loss := false
	if o.PlanIndex >= 0 {
		plan := PlanForIndex(o.Seed, o.PlanIndex)
		o.Plan = plan.String()
		loss = plan.HasLoss()
		inj = plan.Injector()
		opts = append(opts, hfstream.WithFaultInjector(inj))
	}
	defer func() { o.Shots = inj.ShotStrings() }()
	run, err := hfstream.RunProgramsCtx(ctx, d, w.progs, w.gen.init, opts...)

	fail := func(format string, args ...interface{}) {
		o.Class = ClassFail
		o.Detail = fmt.Sprintf(format, args...)
	}
	if err != nil {
		var dl *hfstream.DeadlockError
		var ce *hfstream.CanceledError
		switch {
		case errors.As(err, &dl):
			switch {
			case !loss:
				fail("deadlock on a delay-class or baseline run: %v", err)
			case dl.Diag == nil:
				fail("loss detected but DeadlockError carries no Diagnosis")
			case !inj.LossFired():
				fail("deadlock without a fired loss shot: %v", err)
			default:
				o.Class = ClassLossDetected
				o.Detail = "deadlock: " + dl.Diag.Reason
			}
		case errors.As(err, &ce):
			// Run decides what the cut means: a hang if the case's deadline
			// passed, nothing at all if the caller gave up.
			fail("canceled at cycle %d", ce.Cycle)
		default:
			fail("unexpected error: %v", err)
		}
		return
	}

	for _, a := range w.gen.outAddrs {
		if got, want := run.Read(a), w.oracle[a]; got != want {
			fail("silent corruption at %#x: got %#x want %#x", a, got, want)
			return
		}
	}
	switch {
	case run.UnquiescedExit:
		switch {
		case !loss || !inj.LossFired():
			fail("unquiesced exit without a fired loss plan: %s", run.UnquiescedDetail)
		case run.Diagnosis == nil:
			fail("unquiesced exit carries no Diagnosis")
		default:
			o.Class = ClassLossDetected
			o.Detail = "unquiesced: " + run.Diagnosis.Reason
		}
	case o.PlanIndex < 0:
		o.Class = ClassBaselineOK
	case loss:
		if inj.LossFired() {
			fail("loss shot fired but the run completed clean (absorbed loss): %v", inj.ShotStrings())
			return
		}
		o.Class = ClassLossBenign
	default:
		o.Class = ClassDelayOK
	}
}
