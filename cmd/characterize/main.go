// Command characterize regenerates the paper's evaluation: every table
// and figure (Figs. 5-8, Tables III, V, VI, VII), plus the findings
// checklist, from deterministic full-system runs.
//
// Usage:
//
//	characterize [-exp all|fig5|tab3|fig6|tab5|tab6|tab7|fig7|fig8|tune|search]
//	             [-duration 60s] [-out report.txt] [-workers N]
//	             [-faults <scenario>] [-supervise] [-shed 100ms] [-guard]
//	             [-sched] [-seed 1] [-bench BENCH_sched.json]
//	             [-budget 12] [-space default|compact]
//
// -exp tune runs the scheduler auto-tuner instead of the paper tables:
// a clean profiling drive measures per-node criticality from lineage
// chains, then every seeded candidate schedule replays the chaos
// scenario named by -faults (default: contention) and the one with the
// lowest worst-path p99 wins. The full search is serialized to -bench
// as BENCH_sched.json; candidate 0 is always the no-scheduler baseline,
// so the winner is never worse than not scheduling. -seed drives the
// candidate search; the whole procedure is deterministic.
//
// -sched forces the pinned contention-tuned schedule onto a -faults
// run (criticality profiled on the run's own baseline leg).
//
// The stack flags (-faults -detector -supervise -shed -guard -sched
// -space) are the ones avsim takes: scenario.Flags resolves them into
// one scenario.Spec. -supervise, -shed, -guard and -sched force their
// layer onto the hardened leg of a -faults run and of every -exp tune
// candidate; scenario.Spec.Harden attaches the layers, and the
// environment is autoware.BuildEnv over the spec's own world.
//
// -exp search runs the adversarial latency search: -budget seeded
// candidates — procedurally generated worlds (internal/world.Generate)
// plus sampled fault schedules — are evaluated against the scripted
// baseline drive, and the feasible candidate with the HIGHEST
// worst-path p99 wins. It is the tuner's mirror image: tune minimizes
// the tail, search hunts latency-budget violations to pin as
// regression scenarios. -space picks the sampling space, -seed drives
// every decision, and the full search is serialized to -bench (default
// BENCH_search.json here). Same seed ⇒ byte-identical report and the
// same elected worst case.
//
// -guard attaches the input-integrity layer (internal/guard) to every
// run. For the paper tables the input is clean, so the guarded report
// is byte-identical to the unguarded one — the flag is the regression
// hook that proves the guard is free on clean streams. With -faults it
// forces the guard onto the scenario's faulted run.
//
// -workers bounds how many experiment configurations simulate
// concurrently (default: the number of CPUs). Every configuration is an
// isolated virtual-time simulation, so the report is byte-identical for
// any worker count; only wall-clock time changes.
//
// -faults switches to the chaos characterization: instead of the paper
// tables, it runs the named fault scenario (baseline vs faulted over
// the same drive) and writes the side-by-side latency/drop/degradation
// report. Same seed + schedule ⇒ byte-identical report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/autoware"
	"repro/internal/core"
	"repro/internal/hdmap"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/world"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, findings, or one of "+strings.Join(core.ExperimentNames(), ", "))
	duration := flag.Duration("duration", 60*time.Second, "virtual drive duration per configuration")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	csvDir := flag.String("csv", "", "also export raw per-sample data as CSV files into this directory")
	workers := flag.Int("workers", runtime.NumCPU(), "max concurrent experiment configurations (results are identical for any value)")
	var opts scenario.Flags
	opts.Register(flag.CommandLine)
	seed := flag.Uint64("seed", 1, "candidate-search seed for -exp tune and -exp search")
	bench := flag.String("bench", "", "write the -exp tune/search results to this JSON file (default BENCH_sched.json / BENCH_search.json)")
	budget := flag.Int("budget", 12, "evaluated candidates for -exp search, including the scripted baseline")
	flag.Parse()
	parallel.SetMaxWorkers(*workers)
	det := autoware.Detector(opts.Detector)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *exp == "tune" {
		if opts.Faults == "" {
			opts.Faults = scenario.NameContention
		}
		start := time.Now()
		spec, scen, m := hardenedEnv(opts, *duration, det)
		rep, err := scenario.TuneWithEnv(scen, m, spec, det, *duration, *seed)
		if err != nil {
			fatal(err)
		}
		writeTuneReport(w, rep)
		writeBench(orDefault(*bench, "BENCH_sched.json"), rep)
		// Tune's contract: candidate 0 is the no-scheduler baseline and
		// is always feasible, so the winner can never be worse. Treat a
		// violation as the bug it would be (sched-smoke relies on this).
		if rep.Best.P99 > rep.Baseline.P99 {
			fatal(fmt.Errorf("tuned p99 %.2f ms worse than baseline %.2f ms", rep.Best.P99, rep.Baseline.P99))
		}
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return
	}

	if *exp == "search" {
		sp, err := world.SpaceByName(opts.Space)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "searching %d candidates (%s space, seed %d, %v per eval)...\n",
			*budget, opts.Space, *seed, *duration)
		start := time.Now()
		rep, err := search.Run(search.Config{
			Space:     sp,
			SpaceName: opts.Space,
			Seed:      *seed,
			Budget:    *budget,
			Duration:  *duration,
			Detector:  det,
		})
		if err != nil {
			fatal(err)
		}
		writeSearchReport(w, rep)
		writeBench(orDefault(*bench, "BENCH_search.json"), rep)
		// Search's contract, mirroring tune's: the scripted baseline is
		// always feasible, so the elected worst case can never be better
		// (lower-p99) than it. search-smoke relies on this.
		if rep.Worst.P99 < rep.Baseline.P99 {
			fatal(fmt.Errorf("worst p99 %.2f ms below baseline %.2f ms", rep.Worst.P99, rep.Baseline.P99))
		}
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return
	}

	if opts.Faults != "" {
		start := time.Now()
		spec, scen, m := hardenedEnv(opts, *duration, det)
		res, err := scenario.RunWithEnvContext(context.Background(), scen, m, spec, det, *duration)
		if err != nil {
			fatal(err)
		}
		res.WriteReport(w)
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return
	}

	fmt.Fprintf(os.Stderr, "building environment (scenario + HD map)...\n")
	start := time.Now()
	c, err := core.NewCharacterizer(*duration)
	if err != nil {
		fatal(err)
	}
	c.SetWorkers(*workers)
	c.SetGuard(opts.Guard)
	fmt.Fprintf(os.Stderr, "environment ready in %.1fs; simulating %v per configuration (%d workers)\n",
		time.Since(start).Seconds(), *duration, *workers)

	if *exp == "all" {
		if err := c.RunAll(w); err != nil {
			fatal(err)
		}
		findings, err := c.Findings()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "\n=== Findings ===")
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
	} else if *exp == "findings" {
		findings, err := c.Findings()
		if err != nil {
			fatal(err)
		}
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
	} else {
		if err := c.RunExperiment(w, *exp); err != nil {
			fatal(err)
		}
	}
	if *csvDir != "" {
		if err := c.WriteCSV(*csvDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "raw data exported to %s\n", *csvDir)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}

// hardenedEnv resolves the stack flags into the run's spec and builds
// the environment its world describes.
func hardenedEnv(opts scenario.Flags, duration time.Duration, det autoware.Detector) (scenario.Spec, *world.Scenario, *hdmap.Map) {
	spec, err := opts.Spec(duration)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "building environment (scenario + HD map)...\n")
	scen, m, err := autoware.BuildEnv(spec.Config(det))
	if err != nil {
		fatal(err)
	}
	return spec, scen, m
}

// writeTuneReport renders the search in the report house style: the
// baseline, the winner, and every candidate with its verdict.
func writeTuneReport(w io.Writer, rep *scenario.TuneReport) {
	fmt.Fprintf(w, "=== Scheduler auto-tune: %s (%.0fs drive, search seed %d) ===\n",
		rep.Scenario, rep.DurationSeconds, rep.SearchSeed)
	fmt.Fprintf(w, "budget: %.0f ms end-to-end\n\n", rep.BudgetMS)
	fmt.Fprintf(w, "%-28s %-22s %9s %9s %8s %s\n", "candidate", "worst path", "p50(ms)", "p99(ms)", "samples", "verdict")
	for _, c := range rep.Candidates {
		verdict := "ok"
		switch {
		case c.Error != "":
			verdict = "error: " + c.Error
		case !c.Feasible:
			verdict = "infeasible (gutted samples)"
		case c.Name == rep.Best.Name:
			verdict = "BEST"
		}
		fmt.Fprintf(w, "%-28s %-22s %9.2f %9.2f %8d %s\n", c.Name, c.Path, c.P50, c.P99, c.Samples, verdict)
	}
	fmt.Fprintf(w, "\nbaseline p99 %.2f ms -> tuned p99 %.2f ms (%.1f%% improvement)\n",
		rep.Baseline.P99, rep.Best.P99, rep.P99ImprovementPct)
	fmt.Fprintf(w, "winning knobs: priorities=%t shed=%dms max_inflight=%d queue_depth=%d\n",
		rep.Best.Priorities, rep.Best.ShedMS, rep.Best.MaxInflight, rep.Best.QueueDepth)
}

// writeSearchReport renders the adversarial search in the same house
// style as the tuner: baseline, worst case, and every candidate with
// its verdict.
func writeSearchReport(w io.Writer, rep *search.Report) {
	fmt.Fprintf(w, "=== Adversarial latency search: %s space (%.0fs drive, search seed %d, %s) ===\n",
		rep.Space, rep.DurationSeconds, rep.SearchSeed, rep.Detector)
	fmt.Fprintf(w, "budget: %.0f ms end-to-end; %d candidates\n\n", rep.BudgetMS, rep.Budget)
	fmt.Fprintf(w, "%-18s %-22s %9s %9s %8s %-22s %s\n",
		"candidate", "worst path", "p50(ms)", "p99(ms)", "samples", "top node (share)", "verdict")
	for _, c := range rep.Candidates {
		verdict := "ok"
		switch {
		case c.Error != "":
			verdict = "error: " + c.Error
		case !c.Feasible:
			verdict = "infeasible (gutted samples)"
		case c.Name == rep.Worst.Name && c.Violation:
			verdict = "WORST (budget violation)"
		case c.Name == rep.Worst.Name:
			verdict = "WORST"
		case c.Violation:
			verdict = "budget violation"
		}
		top := ""
		if c.TopNode != "" {
			top = fmt.Sprintf("%s (%.0f%%)", c.TopNode, 100*c.TopShare)
		}
		fmt.Fprintf(w, "%-18s %-22s %9.2f %9.2f %8d %-22s %s\n",
			c.Name, c.Path, c.P50, c.P99, c.Samples, top, verdict)
	}
	fmt.Fprintf(w, "\nbaseline p99 %.2f ms -> worst p99 %.2f ms (+%.1f%%), %d budget violation(s)\n",
		rep.Baseline.P99, rep.Worst.P99, rep.P99InflationPct, rep.Violations)
	fmt.Fprintf(w, "worst world: %s\n", rep.Worst.Params)
	for _, f := range rep.Worst.Faults {
		fmt.Fprintf(w, "worst fault: %s\n", f)
	}
}

// writeBench serializes a search/tune report to its JSON artifact.
func writeBench(name string, rep any) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "search results written to %s\n", name)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}
