// Command pairs measures a change against a baseline revision with the
// repository's benchmark (bench/spine): it checks the baseline out into a
// git worktree under .bench_build/, runs `bash bench/spine/run.sh
// -workload W` in both trees as parent/change pairs, alternating which
// side goes first, and reports each side's median and quartiles per
// end-to-end metric of BENCHMARK.json, with the pairs the change won and
// each side's share of failed operations, as Markdown tables; -render
// prints the same tables for a report already written. It is the harness
// behind `make spine-pairs` and the BENCH_PR<n>.json files, and it is the
// regression gate: it exits non-zero when, on a workload it ran, the
// change's median of an end-to-end metric is worse than the baseline's by
// more than that metric's bound in BENCHMARK.json, or the change failed a
// larger share of its operations.
//
// Each tree runs its own copy of the benchmark, so the comparison is only
// meaningful while the change leaves bench/spine alone — which is what a
// change that claims a gain has to do anyway.
//
// Usage:
//
//	go run ./bench/pairs -base HEAD~1 -workload ncore
//	go run ./bench/pairs -base 9634bad -workload matrix2,referee -pairs 1 -out BENCH_PR13.json
//	go run ./bench/pairs -render BENCH_PR21.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Run is one `run.sh -workload` process set: the driver line it printed.
type Run struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// Pair is one baseline run and one change run made back to back.
type Pair struct {
	First  string `json:"first"` // "base" or "change": the side that ran first
	Base   Run    `json:"base"`
	Change Run    `json:"change"`
}

// Spread is the median and quartiles of one side's runs.
type Spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// Summary compares the two sides on one end-to-end metric.
type Summary struct {
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Base   Spread  `json:"base"`
	Change Spread  `json:"change"`
	// Wins, Losses and Ties count pairs by which side read better.
	Wins   int `json:"wins"`
	Losses int `json:"losses"`
	Ties   int `json:"ties"`
}

// Workload holds every run made on one workload and their summary.
type Workload struct {
	Pairs   []Pair    `json:"pairs"`
	Summary []Summary `json:"summary"`
	// BaseFailed and ChangeFailed are each side's failed operations over
	// the operations it attempted, summed across the pairs.
	BaseFailed   float64 `json:"base_failed_share"`
	ChangeFailed float64 `json:"change_failed_share"`
}

// Report is the BENCH_PR<n>.json schema.
type Report struct {
	Base      string               `json:"base"`
	Change    string               `json:"change"`
	Workloads map[string]*Workload `json:"workloads"`
}

// metric is one end_to_end entry of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	base := flag.String("base", "", "baseline revision (required)")
	workloads := flag.String("workload", "", "comma-separated workloads; default: every workload of BENCHMARK.json")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	out := flag.String("out", "", "JSON report to write; pairs already in the file are kept and the new ones added")
	render := flag.String("render", "", "print this report's summary as Markdown tables instead of running pairs")
	flag.Parse()
	var err error
	if *render != "" {
		err = renderFile(*render, os.Stdout)
	} else {
		err = run(*base, *workloads, *pairs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(base, workloads string, pairs int, out string) error {
	if base == "" || pairs < 1 {
		return fmt.Errorf("need -base <rev> and -pairs >= 1")
	}
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if workloads != "" {
		names = strings.Split(workloads, ",")
	}

	rep := &Report{Workloads: map[string]*Workload{}}
	if out != "" {
		if old, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(old, rep); err != nil {
				return fmt.Errorf("%s: %w", out, err)
			}
		}
	}
	baseRev, err := git(root, "rev-parse", "--short=12", base)
	if err != nil {
		return err
	}
	changeRev, err := git(root, "rev-parse", "--short=12", "HEAD")
	if err != nil {
		return err
	}
	if dirty, _ := git(root, "status", "--porcelain"); dirty != "" {
		changeRev += "+uncommitted"
	}
	if len(rep.Workloads) > 0 && (rep.Base != baseRev || rep.Change != changeRev) {
		return fmt.Errorf("%s holds runs of %s against %s, not %s against %s", out, rep.Change, rep.Base, changeRev, baseRev)
	}
	rep.Base, rep.Change = baseRev, changeRev

	baseDir := filepath.Join(root, ".bench_build", "base")
	removeWorktree(root, baseDir) // left behind by an interrupted run
	if _, err := git(root, "worktree", "add", "--detach", baseDir, rep.Base); err != nil {
		return err
	}
	defer removeWorktree(root, baseDir)
	dirs := map[string]string{"base": baseDir, "change": root}

	var failures []string
	for _, name := range names {
		w := rep.Workloads[name]
		if w == nil {
			w = &Workload{}
			rep.Workloads[name] = w
		}
		for i, end := len(w.Pairs), len(w.Pairs)+pairs; i < end; i++ {
			order := []string{"base", "change"}
			if i%2 == 1 {
				order = []string{"change", "base"}
			}
			p := Pair{First: order[0]}
			for _, side := range order {
				r, err := measure(dirs[side], name)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", name, i+1, side, err)
				}
				if side == "base" {
					p.Base = r
				} else {
					p.Change = r
				}
			}
			w.Pairs = append(w.Pairs, p)
			fmt.Fprintf(os.Stderr, "pairs: %s pair %d of %d done (%s first)\n", name, i+1, end, p.First)
		}
		if err := w.recompute(decl.EndToEnd); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		markdown(os.Stdout, name, rep, w)
		for _, f := range w.regressions() {
			failures = append(failures, name+": "+f)
		}
	}

	if out != "" {
		enc, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("the change regressed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// measure runs one workload in the tree at dir and decodes the driver's
// line, the last one on standard output.
func measure(dir, workload string) (Run, error) {
	cmd := exec.Command("bash", "bench/spine/run.sh", "-workload", workload)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return Run{}, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return Run{}, fmt.Errorf("driver line: %w", err)
	}
	r := Run{Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
	for name, m := range line.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, nil
}

// recompute rebuilds the workload's summary and failed shares from its
// pairs. A metric that a run did not report is an error: read as 0 it
// would tie with, or beat, every real reading.
func (w *Workload) recompute(metrics []metric) error {
	w.Summary = nil
	for _, m := range metrics {
		s, err := summarize(m, w.Pairs)
		if err != nil {
			return err
		}
		w.Summary = append(w.Summary, s)
	}
	var base, change Run
	for _, p := range w.Pairs {
		base.Attempted += p.Base.Attempted
		base.Failed += p.Base.Failed
		change.Attempted += p.Change.Attempted
		change.Failed += p.Change.Failed
	}
	w.BaseFailed = float64(base.Failed) / float64(base.Attempted)
	w.ChangeFailed = float64(change.Failed) / float64(change.Attempted)
	return nil
}

// regressions lists the reasons the change fails the gate on this
// workload; none means it passes.
func (w *Workload) regressions() []string {
	var out []string
	for _, s := range w.Summary {
		worse := s.Change.Median - s.Base.Median
		if s.Better == "higher" {
			worse = -worse
		}
		if worse > s.Bound*math.Abs(s.Base.Median) {
			out = append(out, fmt.Sprintf("%s median %.4g against %.4g %s, worse by more than the bound of %.0f%%",
				s.Metric, s.Change.Median, s.Base.Median, s.Unit, 100*s.Bound))
		}
	}
	if w.ChangeFailed > w.BaseFailed {
		out = append(out, fmt.Sprintf("failed share %.4g against %.4g", w.ChangeFailed, w.BaseFailed))
	}
	return out
}

func summarize(m metric, pairs []Pair) (Summary, error) {
	s := Summary{Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	var base, change []float64
	for i, p := range pairs {
		b, okb := p.Base.Metrics[m.Name]
		c, okc := p.Change.Metrics[m.Name]
		if !okb || !okc {
			return s, fmt.Errorf("pair %d: a run did not report %s", i+1, m.Name)
		}
		base, change = append(base, b), append(change, c)
		switch {
		case b == c:
			s.Ties++
		case (c < b) == (m.Better == "lower"):
			s.Wins++
		default:
			s.Losses++
		}
	}
	s.Base, s.Change = spread(base), spread(change)
	return s, nil
}

func spread(v []float64) Spread {
	sort.Float64s(v)
	at := func(q float64) float64 {
		pos := q * float64(len(v)-1)
		lo := int(pos)
		if lo+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	return Spread{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// markdown prints one workload's summary as the table an EXPERIMENTS.md
// section quotes: each side's median [q1, q3], the ratio of the medians and
// the pairs the change won, lost and tied.
func markdown(out io.Writer, name string, rep *Report, w *Workload) {
	fmt.Fprintf(out, "`%s`: %d pairs, base %s (failed share %.4g), change %s (failed share %.4g)\n\n",
		name, len(w.Pairs), rep.Base, w.BaseFailed, rep.Change, w.ChangeFailed)
	fmt.Fprintln(out, "| metric | unit | base median [q1, q3] | change median [q1, q3] | change/base | won/lost/tied |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|")
	cell := func(s Spread) string { return num(s.Median) + " [" + num(s.Q1) + ", " + num(s.Q3) + "]" }
	for _, s := range w.Summary {
		fmt.Fprintf(out, "| `%s` | %s | %s | %s | %.4g | %d/%d/%d |\n", s.Metric, s.Unit,
			cell(s.Base), cell(s.Change), s.Change.Median/s.Base.Median, s.Wins, s.Losses, s.Ties)
	}
	fmt.Fprintln(out)
}

// num prints four significant digits, and whole numbers from 10 000 up
// rather than an exponent.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// renderFile prints every workload of the report at path through markdown,
// in name order.
func renderFile(path string, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(rep.Workloads))
	for name := range rep.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		markdown(out, name, &rep, rep.Workloads[name])
	}
	return nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(outb)), nil
}

// removeWorktree drops the baseline worktree if there is one; errors mean
// there was none.
func removeWorktree(root, dir string) {
	_, _ = git(root, "worktree", "remove", "--force", dir)
	_, _ = git(root, "worktree", "prune")
}
