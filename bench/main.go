// Command bench measures how fast the emulator runs on its host, end to
// end and layer by layer, on four workloads. See README.md.
//
//	go run . -workload switch-hot -seed 1 -seconds 25 -trace 0
//	go run . -compare a1.out a2.out ... -- b1.out b2.out ...
//
// A run prints every metric by name with its unit, then one JSON object as
// its last line: {"correct", "attempted", "failed", "metrics"}. An untraced
// run reports the end-to-end metrics; a traced run (-trace 1) reports the
// per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lightzone/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: switch-hot, paper-eval, fork-fleet or chaos")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "seconds of measured work")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.json)")
	fs.StringVar(&o.tier, "cpu-tier", "default", "diagnostic execution tier: default, notrace or nofastpath")
	compare := fs.Bool("compare", false, "compare run outputs: -compare A1 A2 ... -- B1 B2 ...")
	setupOnly := fs.Bool("setup-unit", false, "internal: run one set-up and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := compareMain(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	if *setupOnly {
		if err := setupUnit(o); err != nil {
			fmt.Fprintln(stderr, "bench: set-up:", err)
			return 1
		}
		return 0
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".json")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.self, o.setups, o.probeSeconds = self, 5, 1
	res, err := runBench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricList keeps metrics in the order they are printed.
type metricList struct {
	names []string
	m     map[string]metric
}

func (l *metricList) add(name, unit string, v float64) {
	if l.m == nil {
		l.m = map[string]metric{}
	}
	l.names = append(l.names, name)
	l.m[name] = metric{Value: v, Unit: unit}
}

// runBench runs the benchmark and prints its human-readable lines to log.
func runBench(o options, log io.Writer) (*result, error) {
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# workload=%s seed=%d seconds=%g trace=%t cpu-tier=%s workers=%d nproc=%d %s/%s %s\n",
		o.workload, o.seed, o.seconds, o.trace, o.tier, workers(), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())

	setups, err := b.setupTimes()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := b.w.oracle(); err != nil {
		return nil, err
	}
	oracleS := time.Since(t0).Seconds()
	fmt.Fprintf(log, "oracle: %.3f s on the slow pipeline (decode cache, host fastpaths and traces off)\n", oracleS)
	// The oracle may have pooled slow-pipeline zygotes; the warm-up unit
	// starts from fresh ones.
	workload.ResetZygotes()
	b.note(b.w.unit(&unitCtx{}))

	var ms metricList
	if !o.trace {
		ph := b.phase(o.seconds, nil)
		lat := durationsMs(ph.lat)
		ms.add("setup_s", "s", median(setups))
		ms.add("units_per_s", "1/s", ph.unitsPerSec())
		ms.add("unit_p50_ms", "ms", median(lat))
		fmt.Fprintf(log, "%d set-ups; %d measured units in %.3f s\n", len(setups), len(ph.lat), ph.wall.Seconds())
		// The tail is printed but not gated: its run-to-run spread on a
		// shared host exceeds any usable bound (see README.md).
		fmt.Fprintf(log, "unit_p90_ms %.6f ms over %d units (not gated)\n", quantile(lat, 9, 10), len(lat))
	} else {
		plain := b.phase(o.seconds/2, nil)
		tr := newTracer()
		traced := b.phase(o.seconds/2, tr)
		pb, err := b.probes(tr, traced.spans)
		if err != nil {
			return nil, err
		}
		layerMetrics(&ms, plain, traced, pb, oracleS)
		fmt.Fprintf(log, "%d untraced and %d traced units; self time by layer, as a share of unit time:\n", len(plain.lat), len(traced.lat))
		for _, s := range layerShares(traced.spans) {
			fmt.Fprintf(log, "  %-22s %6.2f%%  %v\n", s.Name, 100*s.Share, s.Self.Round(time.Microsecond))
		}
		spans := tr.all()
		if err := writeSpans(o.spans, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(spans), o.spans)
	}
	for _, name := range ms.names {
		m := ms.m[name]
		fmt.Fprintf(log, "%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	if b.firstErr != nil {
		fmt.Fprintf(log, "FAILED: %d of %d units; first: %v\n", b.failed, b.attempted, b.firstErr)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms.m}, nil
}

// layerMetrics derives the per-layer metrics of a traced run. Counts are
// per measured unit of the traced phase. Every count and ratio is a single
// division of exact sums, so it repeats bit for bit whatever the number of
// units. A timing comes from the spans of the traced phase when its units
// make that call, and from the probes otherwise.
func layerMetrics(ms *metricList, plain, traced *phaseResult, pb *probeResult, oracleS float64) {
	n := float64(len(traced.lat))
	perUnit := func(v float64) float64 { return ratio(v, n) }
	p50 := func(name string) float64 {
		if xs := spanMs(traced.spans, name); len(xs) > 0 {
			return median(xs)
		}
		return median(spanMs(pb.spans, name))
	}
	perf, ts, mc := traced.perf, traced.trace, traced.mc

	ms.add("workload.prepare_us", "us", 1e3*p50("workload.prepare"))
	ms.add("workload.fork_us", "us", 1e3*p50("workload.fork"))
	ms.add("workload.cold_cell_ms", "ms", median(spanMs(pb.spans, "probe.cold_cell")))
	ms.add("workload.fork_cell_ms", "ms", median(spanMs(pb.spans, "probe.fork_cell")))
	ms.add("workload.zygote_forks_per_unit", "count", perUnit(float64(traced.forks)))

	// Emulated MIPS over the time spent in Env.Run where the units call it,
	// else over the units' whole time (their machines live inside sweeps).
	busy := sum(spanMs(traced.spans, "cpu.run"))
	if busy == 0 {
		busy = sum(durationsMs(traced.lat))
	}
	ms.add("cpu.run_ms", "ms", p50("cpu.run"))
	ms.add("cpu.emu_mips", "MIPS", ratio(float64(perf.Insns), busy*1e3))
	ms.add("cpu.insns_per_unit", "count", perUnit(float64(perf.Insns)))
	ms.add("cpu.decoded_insns_per_unit", "count", perUnit(float64(perf.CodeMisses)))
	ms.add("cpu.block_hit_rate", "ratio", ratio(float64(perf.CodeHits), float64(perf.CodeHits+perf.CodeMisses)))
	ms.add("cpu.blocks_built_per_unit", "count", perUnit(float64(mc[mcCodeBlocks])))
	ms.add("cpu.blocks_stale_per_unit", "count", perUnit(float64(mc[mcCodeStale])))
	ms.add("cpu.trace_insn_share", "ratio", ratio(float64(ts.InsnsRun), float64(perf.Insns)))
	ms.add("cpu.stitches_per_unit", "count", perUnit(float64(ts.Stitched)))
	ms.add("cpu.stitch_fail_ratio", "ratio", ratio(float64(ts.StitchFailed), float64(ts.Stitched+ts.StitchFailed)))
	ms.add("cpu.side_exit_ratio", "ratio", ratio(float64(ts.SideExits), float64(ts.Entered)))
	ms.add("cpu.traces_invalidated_per_unit", "count", perUnit(float64(ts.Invalidated)))
	ms.add("cpu.mtlb_i_hit_rate", "ratio", ratio(float64(mc[mcMTLBIHits]), float64(mc[mcMTLBIHits]+mc[mcMTLBIMisses])))
	ms.add("cpu.mtlb_d_hit_rate", "ratio", ratio(float64(mc[mcMTLBDHits]), float64(mc[mcMTLBDHits]+mc[mcMTLBDMisses])))

	ms.add("mem.tlb_hit_rate", "ratio", ratio(float64(perf.TLBHits), float64(perf.TLBHits+perf.TLBMisses)))
	ms.add("mem.tlb_misses_per_kinsn", "count", ratio(1e3*float64(perf.TLBMisses), float64(perf.Insns)))
	ms.add("mem.cow_copies_per_unit", "count", perUnit(float64(mc[mcCOWCopies])))
	ms.add("mem.shared_frames", "count", perUnit(float64(mc[mcSharedFrames])))
	ms.add("mem.code_invalidations_per_unit", "count", perUnit(float64(mc[mcCodeInvalidations])))

	ms.add("kernel.syscalls_per_unit", "count", perUnit(float64(mc[mcSyscalls])))
	ms.add("kernel.page_faults_per_unit", "count", perUnit(float64(mc[mcPageFaults])))
	ms.add("hyp.hypercalls_per_unit", "count", perUnit(float64(mc[mcHypercalls])))
	ms.add("hyp.stage2_faults_per_unit", "count", perUnit(float64(mc[mcStage2Faults])))
	ms.add("core.lz_traps_per_unit", "count", perUnit(float64(mc[mcLZTraps])))

	ms.add("arm64.decode_ns_per_insn", "ns", pb.decodeNs)
	ms.add("absint.prove_us_per_block", "us", pb.proveUs)
	ms.add("verify.machine_ms", "ms", pb.verifyMs)
	ms.add("replay.digest_ms", "ms", p50("replay.digest"))
	for _, s := range []string{"table4", "table5", "figure3", "figure4", "figure5", "pentest", "ablations"} {
		ms.add("suite."+s+"_ms", "ms", p50("suite."+s))
	}

	ms.add("go.alloc_kb_per_unit", "KiB", perUnit(float64(traced.alloc)/1024))
	ms.add("go.gc_per_unit", "count", perUnit(float64(traced.gcs)))

	ms.add("bench.trace_overhead_pct", "%", 100*ratio(plain.unitsPerSec()-traced.unitsPerSec(), plain.unitsPerSec()))
	ms.add("bench.layer_self_pct", "%", 100*layerSelf(traced.spans))
	ms.add("bench.oracle_s", "s", oracleS)
}

// layerSelf is the share of unit time spent in the layers' own calls: the
// self time of every span except the unit roots and the benchmark's own
// checks.
func layerSelf(spans []span) float64 {
	var in, total float64
	for _, s := range layerShares(spans) {
		total += float64(s.Self)
		if s.Name != "unit" && s.Name != "bench.check" {
			in += float64(s.Self)
		}
	}
	return ratio(in, total)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
