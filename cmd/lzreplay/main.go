// Command lzreplay inspects, diffs, re-runs and minimizes LightZone replay
// journals (see internal/replay).
//
// Usage:
//
//	lzreplay -inspect run.json            # validate + summarize a journal
//	lzreplay -diff a.json b.json          # first divergent rows of two bench journals
//	lzreplay -run case.json               # re-run a chaos or difffuzz journal
//	lzreplay -minimize in.json -o out.json # NOP-minimize a difffuzz stream
//
// -run is a regression check: it exits 0 when the journalled case passes
// under the current build (the bug is fixed) and 1 when it still fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"lightzone/internal/arm64"
	"lightzone/internal/replay"
)

func main() {
	var (
		inspect  = flag.Bool("inspect", false, "validate and summarize the journal")
		diff     = flag.Bool("diff", false, "diff the recorded rows of two bench journals")
		run      = flag.Bool("run", false, "re-run a chaos or difffuzz journal against the current build")
		minimize = flag.Bool("minimize", false, "minimize a diverging difffuzz journal's stream")
		out      = flag.String("o", "", "with -minimize: write the minimized journal here")
		maxDiffs = flag.Int("maxdiffs", 20, "with -diff: show at most this many divergent rows")
	)
	flag.Parse()
	if err := dispatch(os.Stdout, *inspect, *diff, *run, *minimize, *out, *maxDiffs, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "lzreplay:", err)
		os.Exit(1)
	}
}

func dispatch(w io.Writer, inspect, diff, run, minimize bool, out string, maxDiffs int, args []string) error {
	modes := 0
	for _, on := range []bool{inspect, diff, run, minimize} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("pick exactly one of -inspect, -diff, -run, -minimize")
	}
	switch {
	case inspect:
		if len(args) != 1 {
			return fmt.Errorf("-inspect takes one journal path")
		}
		return doInspect(w, args[0])
	case diff:
		if len(args) != 2 {
			return fmt.Errorf("-diff takes two journal paths")
		}
		return doDiff(w, args[0], args[1], maxDiffs)
	case run:
		if len(args) != 1 {
			return fmt.Errorf("-run takes one journal path")
		}
		return doRun(w, args[0])
	default:
		if len(args) != 1 || out == "" {
			return fmt.Errorf("-minimize takes one journal path and -o OUT")
		}
		return doMinimize(w, args[0], out)
	}
}

// doInspect validates the journal (ReadJournal rejects version skew and
// digest mismatches) and prints a one-screen summary.
func doInspect(w io.Writer, path string) error {
	j, err := replay.ReadJournal(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: valid %s journal (version %d)\n", path, j.Kind, j.Version)
	switch j.Kind {
	case replay.KindBench:
		cfg := j.Config
		fmt.Fprintf(w, "  suites:   %v\n", cfg.Suites)
		fmt.Fprintf(w, "  config:   iters=%d seed=%d parallel=%d interp=%v\n",
			cfg.Iters, cfg.Seed, cfg.Parallel, cfg.Interp)
		if slices.Contains(cfg.Suites, "backends") {
			fmt.Fprintf(w, "  backends: %s\n", cfg.Backend)
		}
		if slices.Contains(cfg.Suites, "serve") {
			fmt.Fprintf(w, "  serve:    arrival=%s rps=%g duration_s=%g slo_us=%g\n",
				cfg.Arrival, cfg.RPS, cfg.DurationS, cfg.SLOMicros)
		}
		if slices.Contains(cfg.Suites, "chaos") {
			fmt.Fprintf(w, "  chaos:    cases=%d seed=%d\n", cfg.ChaosCases, cfg.ChaosSeed)
		}
		fmt.Fprintf(w, "  rows:     %d (sha256 %.16s…)\n", len(j.Rows), j.RowsSHA)
	case replay.KindChaos:
		c := j.Chaos
		fmt.Fprintf(w, "  scenario:  %s (%s, %d domains, %d iters)\n",
			c.Scenario.Name, c.Scenario.Variant, c.Scenario.Domains, c.Scenario.Iters)
		fmt.Fprintf(w, "  injection: %s at boundary %d (slice %d traps, repeat %d, arg %d)\n",
			c.Plan.Injection, c.Plan.InjectAt, c.Plan.SliceTraps, c.Plan.Repeat, c.Plan.Arg)
		if c.Failure != "" {
			fmt.Fprintf(w, "  failure:   %s\n", c.Failure)
		}
	case replay.KindDiffFuzz:
		fmt.Fprintf(w, "  seed:   %d\n", j.Fuzz.Seed)
		fmt.Fprintf(w, "  stream: %d words\n", len(j.Fuzz.Words))
		if j.Fuzz.Failure != "" {
			fmt.Fprintf(w, "  failure: %s\n", j.Fuzz.Failure)
		}
	}
	return nil
}

// doDiff compares the recorded rows of two bench journals.
func doDiff(w io.Writer, pathA, pathB string, maxDiffs int) error {
	a, err := replay.ReadJournal(pathA)
	if err != nil {
		return err
	}
	b, err := replay.ReadJournal(pathB)
	if err != nil {
		return err
	}
	if a.Kind != replay.KindBench || b.Kind != replay.KindBench {
		return fmt.Errorf("-diff compares bench journals (got %s vs %s)", a.Kind, b.Kind)
	}
	if a.RowsSHA == b.RowsSHA {
		fmt.Fprintf(w, "identical: %d rows, sha256 %.16s…\n", len(a.Rows), a.RowsSHA)
		return nil
	}
	diffs := replay.DiffRows(a.Rows, b.Rows, maxDiffs)
	fmt.Fprintf(w, "%d divergent rows (of %d vs %d; first %d shown)\n",
		len(replay.DiffRows(a.Rows, b.Rows, max(len(a.Rows), len(b.Rows))+1)),
		len(a.Rows), len(b.Rows), len(diffs))
	for _, d := range diffs {
		fmt.Fprintf(w, "  row %d:\n    a: %s\n    b: %s\n", d.Index, d.A, d.B)
	}
	return fmt.Errorf("journals diverge")
}

// doRun re-executes a pinned case. Exit 0 means the case passes under this
// build; a still-reproducing failure is the error path.
func doRun(w io.Writer, path string) error {
	j, err := replay.ReadJournal(path)
	if err != nil {
		return err
	}
	switch j.Kind {
	case replay.KindChaos:
		res := replay.RunChaosCase(j.Chaos.Plan)
		fmt.Fprintf(w, "chaos %s/%s: expect=%s outcome=%s applied=%d\n",
			res.Scenario, res.Injection, res.Expect, res.Outcome, res.Applied)
		if res.Delta != "" {
			fmt.Fprintf(w, "  %s\n", res.Delta)
		}
		if !res.Pass {
			return fmt.Errorf("case still fails: %s", res.Failure)
		}
		return nil
	case replay.KindDiffFuzz:
		res, err := replay.DualRun(j.Fuzz.Words)
		if err != nil {
			return err
		}
		if res.Divergence != "" {
			return fmt.Errorf("stream still diverges: %s", res.Divergence)
		}
		fmt.Fprintf(w, "difffuzz seed %d: %d words, pipelines agree (%d insns)\n",
			j.Fuzz.Seed, len(j.Fuzz.Words), res.Fast.Insns)
		return nil
	default:
		return fmt.Errorf("-run handles chaos and difffuzz journals, not %s", j.Kind)
	}
}

// doMinimize NOP-substitutes a diverging difffuzz stream down to the words
// that still reproduce the divergence, and journals the result.
func doMinimize(w io.Writer, inPath, outPath string) error {
	j, err := replay.ReadJournal(inPath)
	if err != nil {
		return err
	}
	if j.Kind != replay.KindDiffFuzz {
		return fmt.Errorf("-minimize handles difffuzz journals, not %s", j.Kind)
	}
	diverges := func(ws []uint32) bool {
		res, err := replay.DualRun(ws)
		return err == nil && res.Divergence != ""
	}
	if !diverges(j.Fuzz.Words) {
		return fmt.Errorf("stream does not diverge under this build; nothing to minimize")
	}
	min := replay.Minimize(j.Fuzz.Words, diverges)
	res, _ := replay.DualRun(min)
	out := replay.FuzzJournal(j.Fuzz.Seed, min, res.Divergence)
	if err := out.Write(outPath); err != nil {
		return err
	}
	kept := 0
	for _, wd := range min {
		if wd != arm64.WordNOP {
			kept++
		}
	}
	fmt.Fprintf(w, "minimized %d-word stream to %d essential words -> %s\n", len(min), kept, outPath)
	return nil
}
