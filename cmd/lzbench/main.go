// Command lzbench regenerates the evaluation of "LightZone: Lightweight
// Hardware-Assisted In-Process Isolation for ARM64" (MIDDLEWARE '24):
// Table 4 (trap roundtrips), Table 5 (domain switching), Figures 3-5
// (Nginx, MySQL, NVM) with the §9 memory overheads, the §7.2 penetration
// tests and the §5.2 ablations — on the simulated Carmel and Cortex-A55
// platforms — plus the static-verification, backend, serve and chaos suites.
//
// Usage:
//
//	lzbench -suite table4          # trap roundtrip cycles
//	lzbench -suite table5          # domain-switch cycles
//	lzbench -suite figure3         # Nginx throughput and §9.1 memory
//	lzbench -suite pentest,invariants # §7.2 attacks + planted attacks, caught statically
//	lzbench -all                   # table4 through ablations
//	lzbench -all -json             # machine-readable: one JSON object per line
//	lzbench -all -parallel 8       # shard measurement cells over 8 workers
//	lzbench -all -json -interp     # the same rows from the plain Step interpreter
//	lzbench -suite backends -backend overlay # isolation-backend comparison matrix
//	lzbench -all -record r.json    # record the run into a replay journal
//	lzbench -replay r.json         # re-run the journal; rows must be byte-identical
//	lzbench -suite chaos -chaos 32 # fault-injection sweep: 32 derived chaos cases
//	lzbench -suite serve           # always-on service harness: utilization ladder
//	lzbench -suite serve -arrival bursty -rps 2000 -duration 1 -slo 500
//
// Suites are always run and emitted in registry order, whatever order
// -suite names them in. Every measurement cell boots a private machine, so
// -parallel N changes only wall-clock time: the emitted rows (emulated cycle
// counts included) are byte-identical for every N. Record/replay leans on
// exactly that: a journal replays correctly at any -parallel width. -interp
// is the oracle switch: the cached tiers (decode cache, block replay,
// micro-TLBs, traces) must emit the same bytes as the plain interpreter.
// Host speed is measured by bench/ (bench/run.sh), not here.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/replay"
	"lightzone/internal/serve"
	"lightzone/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// suite is one registry entry: a named block of rows.
type suite struct {
	name string
	all  bool // -all includes it
	// pin draws the suite's journal inputs through the run's replay.Source
	// before any suite runs; nil when the suite has none.
	pin   func(*runCtx) error
	print func(*runCtx) error
}

// suites is the registry in emission order. The names are the ones
// journals record in replay.RunConfig.Suites.
func suites() []suite {
	return []suite{
		{"table4", true, nil, (*runCtx).printTable4},
		{"table5", true, (*runCtx).pinTable5, (*runCtx).printTable5},
		{"figure3", true, nil, figure(3)},
		{"figure4", true, nil, figure(4)},
		{"figure5", true, nil, figure(5)},
		{"pentest", true, nil, (*runCtx).printPentest},
		{"ablations", true, nil, (*runCtx).printAblations},
		// The rest are opt-in: static verification, the backend matrix,
		// continuous load and fault injection are not part of the paper's
		// evaluation.
		{"invariants", false, nil, (*runCtx).printVerify},
		{"backends", false, (*runCtx).pinBackends, (*runCtx).printBackends},
		{"serve", false, (*runCtx).pinServe, (*runCtx).printServe},
		{"chaos", false, (*runCtx).pinChaos, (*runCtx).printChaos},
	}
}

func figure(f int) func(*runCtx) error {
	return func(c *runCtx) error { return c.printFigure(f) }
}

func suiteNames() []string {
	var names []string
	for _, s := range suites() {
		names = append(names, s.name)
	}
	return names
}

// selectSuites adds a comma-separated list of suite names to sel.
func selectSuites(sel map[string]bool, list string) error {
	for _, name := range strings.Split(list, ",") {
		if !slices.Contains(suiteNames(), name) {
			return fmt.Errorf("unknown suite %q (have %s)", name, strings.Join(suiteNames(), ", "))
		}
		sel[name] = true
	}
	return nil
}

// runCtx is one invocation: the boundary configuration (from the flags, or
// from the journal being replayed), where rows go, and the inputs the
// suites pinned. Every printer reads it; suites share nothing else.
type runCtx struct {
	cfg   replay.RunConfig
	out   *errWriter
	log   io.Writer
	json  bool
	fleet *workload.Fleet
	// source supplies the journal inputs; nil on plain runs, where draws
	// pass their generators through. capture, when non-nil, accumulates
	// every emitted row for the journal (-record) or the comparison
	// (-replay).
	source  *replay.Source
	capture []string

	csvDir    string
	chaosOut  string
	chaosN    int
	chaosSeed int64

	// Inputs the pin functions drew, and what -serveout writes.
	table5Iters  int
	backendIters int
	backends     []string
	serveCfg     serve.Config
	serveCells   []serve.Cell
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sel := map[string]bool{}
	fs.Func("suite", "comma-separated suites to run, in any order: "+strings.Join(suiteNames(), ", "), func(v string) error {
		return selectSuites(sel, v)
	})
	var (
		all      = fs.Bool("all", false, "run every paper suite: table4, table5, figure3-5, pentest, ablations")
		iters    = fs.Int("iters", 10000, "domain-switch iterations (table5, backends)")
		csvDir   = fs.String("csv", "", "also write figure series as CSV files into this directory")
		jsonMode = fs.Bool("json", false, "emit one JSON object per table row / figure point instead of tables")
		backend  = fs.String("backend", "all", "backends suite: measure this backend, or \"all\" side by side")
		parallel = fs.Int("parallel", runtime.NumCPU(), "worker goroutines for the measurement sweeps (1 = fully sequential)")
		interp   = fs.Bool("interp", false, "run every machine on the plain Step interpreter (no decode cache, block replay, micro-TLBs or traces); emitted rows must stay byte-identical")
		proofAud = fs.Bool("proofaudit", false, "cross-check every cached-block replay against its static BlockProof; summary on stderr, nonzero exit on any divergence, stdout byte-identical")
		cpuProf  = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a host heap profile to this file")
		record   = fs.String("record", "", "record the run (config, journal inputs, emitted rows) into a replay journal at this path; implies -json")
		replayP  = fs.String("replay", "", "replay a recorded journal: re-run its suites under the recorded inputs and fail unless every row is byte-identical; implies -json")
		chaosN   = fs.Int("chaos", 32, "chaos suite: number of derived fault-injection cases")
		chaosSd  = fs.Int64("chaosseed", 1, "chaos suite: seed for deriving the case plans")
		chaosOut = fs.String("chaosout", "", "chaos suite: write one replayable journal per failing case into this directory")
		arrival  = fs.String("arrival", "poisson", "serve suite: arrival process (poisson or bursty)")
		rps      = fs.Float64("rps", 0, "serve suite: offered load in requests/sec; 0 sweeps the utilization ladder against each cell's measured capacity")
		duration = fs.Float64("duration", serve.DefaultDurationS, "serve suite: virtual seconds of offered load per operating point")
		slo      = fs.Float64("slo", 0, "serve suite: latency SLO in microseconds; 0 derives 4x each cell's mean service time")
		serveOut = fs.String("serveout", "", "serve suite: also write the full serve cells (calibration, churn pressure, rows) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *all {
		for _, s := range suites() {
			if s.all {
				sel[s.name] = true
			}
		}
	}
	usageErr := ""
	switch {
	case fs.NArg() > 0:
		usageErr = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case *replayP != "" && (len(sel) > 0 || *record != ""):
		usageErr = "-replay takes its suites from the journal; drop -suite, -all and -record"
	case *replayP == "" && len(sel) == 0:
		usageErr = "no suite selected: use -suite or -all"
	}
	if usageErr != "" {
		fmt.Fprintln(stderr, "lzbench:", usageErr)
		fs.Usage()
		return 2
	}

	c := &runCtx{
		out: &errWriter{w: stdout}, log: stderr,
		json: *jsonMode || *record != "" || *replayP != "", fleet: workload.NewFleet(*parallel),
		csvDir: *csvDir, chaosOut: *chaosOut, chaosN: *chaosN, chaosSeed: *chaosSd,
		cfg: replay.RunConfig{
			Iters: *iters, Mem: true, Seed: workload.Table5Seed, Parallel: *parallel,
			Interp: *interp,
		},
	}
	var j *replay.Journal
	if *replayP != "" {
		var err error
		if j, err = readBenchJournal(*replayP); err != nil {
			fmt.Fprintln(stderr, "lzbench:", err)
			return 1
		}
		// The journal's boundary config replaces the flags', except the
		// fleet width (a journal must replay identically at any width) and
		// -interp, which may only add to the recorded pipeline switch.
		c.cfg = j.Config
		c.cfg.Interp = c.cfg.Interp || *interp
		if err := selectSuites(sel, strings.Join(j.Config.Suites, ",")); err != nil {
			fmt.Fprintf(stderr, "lzbench: %s: %v\n", *replayP, err)
			return 1
		}
		c.source = replay.NewReplaying(j.Inputs)
		c.capture = []string{}
	} else {
		c.cfg.Invariants = sel["invariants"]
		if sel["backends"] {
			c.cfg.Backend = *backend
		}
		if sel["serve"] {
			c.cfg.Arrival, c.cfg.RPS, c.cfg.DurationS, c.cfg.SLOMicros = *arrival, *rps, *duration, *slo
		}
		if *record != "" {
			c.source = replay.NewRecording()
			c.capture = []string{}
		}
	}
	var selected []suite
	c.cfg.Suites = nil
	for _, s := range suites() {
		if sel[s.name] {
			selected = append(selected, s)
			c.cfg.Suites = append(c.cfg.Suites, s.name)
		}
	}

	defer setDefaults(c.cfg, *proofAud)()
	err := withCPUProfile(*cpuProf, func() error { return c.execute(selected) })
	if err == nil && j != nil {
		err = c.compare(j, *replayP)
	}
	if err == nil && *record != "" {
		err = c.record(*record)
	}
	if err == nil && *serveOut != "" {
		err = writeJSONFile(*serveOut, c.serveCells)
	}
	if err == nil && *memProf != "" {
		err = writeMemProfile(*memProf)
	}
	if err == nil && *proofAud {
		err = reportProofAudit(stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lzbench:", err)
		return 1
	}
	return 0
}

// setDefaults applies the run's process-wide execution toggles and returns
// the function that restores the previous ones, so in-process callers can
// run lzbench repeatedly. -interp turns off all three cached-pipeline
// defaults, leaving the plain Step interpreter.
func setDefaults(cfg replay.RunConfig, proofAudit bool) (restore func()) {
	fast, decode, trace := cpu.HostFastpathDefault(), cpu.DecodeCacheDefault(), cpu.TraceDefault()
	audit := cpu.ProofAuditDefault()
	cpu.SetHostFastpathDefault(fast && !cfg.Interp)
	cpu.SetDecodeCacheDefault(decode && !cfg.Interp)
	cpu.SetTraceDefault(trace && !cfg.Interp)
	if proofAudit {
		cpu.ResetProofAudit()
		cpu.SetProofAuditDefault(true)
	}
	return func() {
		cpu.SetHostFastpathDefault(fast)
		cpu.SetDecodeCacheDefault(decode)
		cpu.SetTraceDefault(trace)
		cpu.SetProofAuditDefault(audit)
	}
}

// execute pins every selected suite's inputs, then runs the suites in
// registry order.
func (c *runCtx) execute(selected []suite) error {
	// The cost-model axis: a replayed journal must see the same platform
	// profile set the recording did.
	if profs := c.pin("platform/profiles", int64(len(arm64.Profiles()))); profs != int64(len(arm64.Profiles())) {
		return fmt.Errorf("journal recorded %d platform profiles, this build has %d", profs, len(arm64.Profiles()))
	}
	for _, s := range selected {
		if s.pin == nil {
			continue
		}
		if err := s.pin(c); err != nil {
			return err
		}
	}
	for _, s := range selected {
		if err := s.print(c); err != nil {
			return err
		}
		if c.out.err != nil {
			return c.out.err
		}
	}
	return c.source.Err()
}

// pin draws one journal input: recording logs v under key, replaying
// returns the recorded value, and a plain run returns v.
func (c *runCtx) pin(key string, v int64) int64 { return c.source.Int64(key, replay.Fixed(v)) }

// record seals the run into a journal.
func (c *runCtx) record(path string) error {
	j := &replay.Journal{
		Version: replay.Version,
		Kind:    replay.KindBench,
		Config:  c.cfg,
		Inputs:  c.source.Inputs(),
		Rows:    c.capture,
	}
	j.Seal()
	if err := j.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(c.log, "lzbench: recorded %d rows into %s\n", len(j.Rows), path)
	return nil
}

func readBenchJournal(path string) (*replay.Journal, error) {
	j, err := replay.ReadJournal(path)
	if err != nil {
		return nil, err
	}
	if j.Kind != replay.KindBench {
		return nil, fmt.Errorf("%s: journal kind %q; lzbench replays bench journals (use lzreplay for %q)", path, j.Kind, j.Kind)
	}
	return j, nil
}

// compare checks the replayed rows against the journal's byte for byte.
func (c *runCtx) compare(j *replay.Journal, path string) error {
	diffs := replay.DiffRows(j.Rows, c.capture, 10)
	if len(diffs) == 0 {
		fmt.Fprintf(c.log, "lzbench: replay of %s byte-identical (%d rows)\n", path, len(c.capture))
		return nil
	}
	all := replay.DiffRows(j.Rows, c.capture, max(len(j.Rows), len(c.capture))+1)
	fmt.Fprintf(c.log, "lzbench: replay DIVERGED from %s: %d of %d recorded rows differ (first %d shown)\n",
		path, len(all), len(j.Rows), len(diffs))
	for _, d := range diffs {
		fmt.Fprintf(c.log, "  row %d:\n    recorded: %s\n    replayed: %s\n", d.Index, d.A, d.B)
	}
	return fmt.Errorf("replay diverged")
}

// reportProofAudit summarizes the block-proof oracle on stderr and fails
// the run when any completed replay contradicted its static proof. The
// auditor is observation-only, so stdout stays byte-identical to a run
// without the flag.
func reportProofAudit(log io.Writer) error {
	st := cpu.ReadProofAudit()
	fmt.Fprintf(log, "lzbench: proofaudit: %d spans (%d finished, %d abandoned), %d divergences\n",
		st.Spans, st.Finished, st.Abandoned, st.Divergences)
	for _, d := range st.Details {
		fmt.Fprintf(log, "  %s\n", d)
	}
	if st.Divergences > 0 {
		return fmt.Errorf("proofaudit: %d divergences between static block proofs and execution", st.Divergences)
	}
	return nil
}

// errWriter keeps the first write error, so printers write freely and the
// run checks once per suite.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// writeFile creates path, lets fill write it, and returns the first
// create, write or close error: a truncated file is a failed run.
func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := &errWriter{w: f}
	if err = fill(w); err == nil {
		err = w.err
	}
	return errors.Join(err, f.Close())
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

func writeMemProfile(path string) error {
	runtime.GC()
	return writeFile(path, pprof.WriteHeapProfile)
}

// withCPUProfile runs body under a CPU profile written to path ("" = none).
func withCPUProfile(path string, body func() error) error {
	if path == "" {
		return body()
	}
	return writeFile(path, func(w io.Writer) error {
		if err := pprof.StartCPUProfile(w); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
		return body()
	})
}

// emit writes one self-describing result object per line; kind names the
// table/figure so mixed output stays filterable with jq. json.Marshal sorts
// map keys, which is what keeps rows byte-identical across builds.
func (c *runCtx) emit(row map[string]any) {
	b, err := json.Marshal(row)
	if err != nil {
		if c.out.err == nil {
			c.out.err = err
		}
		return
	}
	if c.capture != nil {
		c.capture = append(c.capture, string(b))
	}
	fmt.Fprintf(c.out, "%s\n", b)
}

func (c *runCtx) table() *tabwriter.Writer { return tabwriter.NewWriter(c.out, 2, 4, 2, ' ', 0) }

func (c *runCtx) printTable4() error {
	perProf, err := c.fleet.Table4Sweep()
	if err != nil {
		return err
	}
	if c.json {
		for i, prof := range arm64.Profiles() {
			for _, r := range perProf[i] {
				c.emit(map[string]any{
					"kind": "table4", "profile": prof.Name, "row": r.Name,
					"cycles_lo": r.Lo, "cycles_hi": r.Hi,
				})
			}
		}
		return nil
	}
	fmt.Fprintln(c.out, "Table 4: cycles spent on empty trap-and-return roundtrips")
	w := c.table()
	fmt.Fprintln(w, "\tCarmel\tCortex A55")
	byProf := map[string][]workload.Table4Row{}
	for i, prof := range arm64.Profiles() {
		byProf[prof.Name] = perProf[i]
	}
	carmel, cortex := byProf["Carmel"], byProf["CortexA55"]
	for i := range carmel {
		fmt.Fprintf(w, "%s\t%s\t%s\n", carmel[i].Name, band(carmel[i]), band(cortex[i]))
	}
	w.Flush()
	fmt.Fprintln(c.out)
	return nil
}

func band(r workload.Table4Row) string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d~%d", r.Lo, r.Hi)
}

// pinTable5 pins the iteration budget and cross-checks the workload seed
// against the build's constant.
func (c *runCtx) pinTable5() error {
	c.table5Iters = int(c.pin("table5/iters", int64(c.cfg.Iters)))
	if seed := c.pin("table5/seed", workload.Table5Seed); seed != workload.Table5Seed {
		return fmt.Errorf("journal recorded table5 seed %d, this build uses %d", seed, workload.Table5Seed)
	}
	return nil
}

func (c *runCtx) printTable5() error {
	iters := c.table5Iters
	cells, err := c.fleet.Table5Sweep(iters)
	if err != nil {
		return err
	}
	if c.json {
		// Cells come back in the sweep's enumeration order, which is the
		// historical sequential emission order.
		for _, cell := range cells {
			c.emit(map[string]any{
				"kind": "table5", "platform": cell.PlatformName, "variant": string(cell.Variant),
				"domains": cell.Domains, "iters": iters, "avg_cycles": cell.Result.AvgCycles,
			})
		}
		return nil
	}
	// Index the collected cells for the two-line-per-platform rendering.
	wpCycles := map[string]map[int]float64{}
	lzCycles := map[string]map[int]float64{}
	for _, cell := range cells {
		m := lzCycles
		if cell.Variant == workload.VariantWatchpoint {
			m = wpCycles
		}
		if m[cell.PlatformName] == nil {
			m[cell.PlatformName] = map[int]float64{}
		}
		m[cell.PlatformName][cell.Domains] = cell.Result.AvgCycles
	}
	domains := workload.Table5Domains
	fmt.Fprintf(c.out, "Table 5: average cycles of switches (with secure call gate) between protected domains (%d iterations)\n", iters)
	w := c.table()
	fmt.Fprint(w, "\t\t1 (PAN)")
	for _, d := range domains[1:] {
		fmt.Fprintf(w, "\t%d", d)
	}
	fmt.Fprintln(w)
	for _, row := range workload.Table5Platforms() {
		fmt.Fprintf(w, "%s\tWatchpoint", row.Name)
		for i, d := range domains {
			if d > 16 || i >= 3 {
				fmt.Fprint(w, "\t-")
				continue
			}
			fmt.Fprintf(w, "\t%.0f", wpCycles[row.Name][d])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "\tLightZone")
		for _, d := range domains {
			fmt.Fprintf(w, "\t%.0f", lzCycles[row.Name][d])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Fprintln(c.out)
	return nil
}

func (c *runCtx) printFigure(f int) error {
	names := map[int]string{
		3: "Figure 3: Nginx HTTPS throughput (1 worker, 1KB file)",
		4: "Figure 4: MySQL sysbench OLTP read-write throughput",
		5: "Figure 5: NVM data-structure benchmark time overhead",
	}
	if !c.json {
		fmt.Fprintln(c.out, names[f])
	}
	cells, err := c.fleet.FigureSweep(f)
	if err != nil {
		return err
	}
	for _, cell := range cells {
		plat := cell.Platform
		if !c.json {
			fmt.Fprintf(c.out, "  %s:\n", plat)
		}
		switch f {
		case 3, 4:
			series := cell.Series
			if err := c.writeFigureCSV(f, plat, series); err != nil {
				return err
			}
			if c.json {
				for _, s := range series {
					for _, pt := range s.Points {
						c.emit(map[string]any{
							"kind": "figure", "figure": f, "platform": plat.String(),
							"variant": string(s.Variant), "x": pt.X,
							"throughput": pt.Tput, "overhead_pct": s.OverheadPct,
						})
					}
				}
				continue
			}
			w := c.table()
			fmt.Fprint(w, "    variant")
			for _, pt := range series[0].Points {
				fmt.Fprintf(w, "\tc=%d", pt.X)
			}
			fmt.Fprintln(w, "\tloss")
			for _, s := range series {
				fmt.Fprintf(w, "    %s", s.Variant)
				for _, pt := range s.Points {
					fmt.Fprintf(w, "\t%.0f", pt.Tput)
				}
				fmt.Fprintf(w, "\t%.2f%%\n", s.OverheadPct)
			}
			w.Flush()
		case 5:
			series := cell.NVM
			if err := c.writeNVMCSV(plat, series); err != nil {
				return err
			}
			if c.json {
				for _, s := range series {
					for i, d := range workload.NVMDomainCounts {
						c.emit(map[string]any{
							"kind": "figure", "figure": f, "platform": plat.String(),
							"variant": string(s.Variant), "domains": d,
							"overhead_pct": s.OverheadPct[i],
						})
					}
				}
				continue
			}
			w := c.table()
			fmt.Fprint(w, "    variant")
			for _, d := range workload.NVMDomainCounts {
				fmt.Fprintf(w, "\tD=%d", d)
			}
			fmt.Fprintln(w)
			for _, s := range series {
				fmt.Fprintf(w, "    %s", s.Variant)
				for _, pct := range s.OverheadPct {
					fmt.Fprintf(w, "\t%.2f%%", pct)
				}
				fmt.Fprintln(w)
			}
			w.Flush()
		}
	}
	// Journals recorded before the memory overheads became part of every
	// figure suite carry mem=false.
	if c.cfg.Mem {
		plat := workload.AllPlatforms()[2]
		var m workload.MemoryOverheads
		var err error
		switch f {
		case 3:
			m, err = workload.NginxMemory(plat)
		case 4:
			m, err = workload.MySQLMemory(plat)
		case 5:
			m, err = workload.NVMMemory(plat)
		}
		if err != nil {
			return err
		}
		if c.json {
			c.emit(map[string]any{
				"kind": "memory", "figure": f, "platform": plat.String(),
				"baseline_bytes": m.BaselineBytes, "frag_pct": m.FragPct,
				"pan_pt_pct": m.PANPTPct, "ttbr_pt_pct": m.TTBRPTPct,
			})
			return nil
		}
		fmt.Fprintf(c.out, "  memory: baseline %.1fMB, fragmentation/app overhead %.1f%%, page tables PAN %.1f%% / TTBR %.1f%%\n",
			float64(m.BaselineBytes)/(1<<20), m.FragPct, m.PANPTPct, m.TTBRPTPct)
	}
	if !c.json {
		fmt.Fprintln(c.out)
	}
	return nil
}

func (c *runCtx) printPentest() error {
	if !c.json {
		fmt.Fprintln(c.out, "Penetration tests (7.2): 128 protected domains")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := c.fleet.PentestSweep(plat)
		if err != nil {
			return err
		}
		if c.json {
			for _, r := range results {
				c.emit(map[string]any{
					"kind": "pentest", "platform": plat.String(), "attack": r.Attack,
					"blocked": r.Blocked, "detail": r.Detail,
				})
			}
			continue
		}
		fmt.Fprintf(c.out, "  %s:\n", plat)
		for _, r := range results {
			status := "survived (legitimate)"
			if r.Blocked {
				status = "BLOCKED"
			}
			fmt.Fprintf(c.out, "    %-34s %s\n", r.Attack, status)
			if r.Blocked {
				fmt.Fprintf(c.out, "      %s\n", strings.TrimPrefix(r.Detail, "lightzone violation: "))
			}
		}
	}
	// With the invariants suite selected, the pentest also runs the
	// planted-attack battery against the static verifier.
	if c.cfg.Invariants {
		if err := c.printPlanted(); err != nil {
			return err
		}
	}
	if !c.json {
		fmt.Fprintln(c.out)
	}
	return nil
}

// printPlanted runs the static half of the attack battery: every planted
// violation must be reported by its designated checker at the planted VA
// before any dynamic trap would see it.
func (c *runCtx) printPlanted() error {
	if !c.json {
		fmt.Fprintln(c.out, "  static detection (planted attacks, caught before any dynamic trap):")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := c.fleet.PlantedSweep(plat)
		if err != nil {
			return err
		}
		if c.json {
			for _, r := range results {
				c.emit(map[string]any{
					"kind": "planted", "platform": plat.String(), "attack": r.Name,
					"checker": r.Checker, "va": fmt.Sprintf("%#x", r.VA), "caught": r.Caught,
				})
			}
			continue
		}
		fmt.Fprintf(c.out, "    %s:\n", plat)
		for _, r := range results {
			fmt.Fprintf(c.out, "      %-26s caught by %s at %#x\n", r.Name, r.Checker, r.VA)
		}
	}
	return nil
}

func (c *runCtx) printAblations() error {
	w := c.table()
	if !c.json {
		fmt.Fprintln(c.out, "Ablations of the 5.2 trap optimizations (cycles on the protected path)")
		fmt.Fprintln(w, "  profile\toptimization\tmetric\toptimized\tablated\tslowdown")
	}
	for _, prof := range arm64.Profiles() {
		results, err := c.fleet.AblationSweep(prof)
		if err != nil {
			return err
		}
		for _, r := range results {
			if c.json {
				c.emit(map[string]any{
					"kind": "ablation", "profile": prof.Name, "optimization": r.Name,
					"metric": r.Metric, "optimized": r.Optimized, "ablated": r.Ablated,
					"slowdown": r.Factor(),
				})
				continue
			}
			fmt.Fprintf(w, "  %s\t%s\t%s\t%.0f\t%.0f\t%.2fx\n",
				prof.Name, r.Name, r.Metric, r.Optimized, r.Ablated, r.Factor())
		}
	}
	if !c.json {
		w.Flush()
		fmt.Fprintln(c.out)
	}
	return nil
}

// printVerify re-runs the clean Table 5 machines with the static invariant
// verifier attached to every mutation chokepoint.
func (c *runCtx) printVerify() error {
	if !c.json {
		fmt.Fprintln(c.out, "Static invariant verification (chokepoint-monitored clean machines)")
	}
	for _, plat := range workload.AllPlatforms() {
		results, err := c.fleet.VerifySweep(plat)
		if err != nil {
			return err
		}
		if c.json {
			for _, r := range results {
				c.emit(map[string]any{
					"kind": "verify", "platform": plat.String(), "config": r.Name,
					"invariant_runs": r.InvariantRuns, "findings": r.Findings,
				})
			}
			continue
		}
		fmt.Fprintf(c.out, "  %s:\n", plat)
		for _, r := range results {
			fmt.Fprintf(c.out, "    %-10s %3d invariant runs, %d findings\n", r.Name, r.InvariantRuns, r.Findings)
		}
	}
	if !c.json {
		fmt.Fprintln(c.out)
	}
	return nil
}

// pinBackends pins the comparison matrix's iteration budget (it shares
// table 5's) and resolves its backend scope, which the journal config
// carries.
func (c *runCtx) pinBackends() error {
	c.backendIters = int(c.pin("backends/iters", int64(c.cfg.Iters)))
	var err error
	c.backends, err = workload.ResolveBackends(c.cfg.Backend)
	return err
}

// printBackends measures the cross-backend comparison matrix on the Table 5
// platforms: domain-switch cycles at every Table 5 domain count, the
// per-page lz_mprotect cost, and the lz-syscall roundtrip, per backend.
func (c *runCtx) printBackends() error {
	if !c.json {
		fmt.Fprintf(c.out, "Backend comparison: cycles per operation (%d switch iterations)\n", c.backendIters)
	}
	for _, row := range workload.Table5Platforms() {
		m, err := c.fleet.BackendSweep(row.Plat, c.backends, c.backendIters)
		if err != nil {
			return err
		}
		if c.json {
			for _, cell := range m.Cells {
				obj := map[string]any{
					"kind": "backend", "platform": m.Machine,
					"backend": cell.Backend, "metric": cell.Metric, "cycles": cell.Cycles,
				}
				if cell.Domains > 0 {
					obj["domains"] = cell.Domains
				}
				c.emit(obj)
			}
			continue
		}
		fmt.Fprintf(c.out, "  %s:\n", m.Machine)
		w := c.table()
		fmt.Fprint(w, "    backend")
		for _, d := range workload.Table5Domains {
			fmt.Fprintf(w, "\tswitch d=%d", d)
		}
		fmt.Fprintln(w, "\tmprotect/page\tsyscall")
		for _, b := range c.backends {
			fmt.Fprintf(w, "    %s", b)
			for _, metric := range []string{"switch", "mprotect-page", "syscall"} {
				for _, cell := range m.Cells {
					if cell.Backend == b && cell.Metric == metric {
						fmt.Fprintf(w, "\t%.1f", cell.Cycles)
					}
				}
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	if !c.json {
		fmt.Fprintln(c.out)
	}
	return nil
}

// pinServe pins every serve setting. Floats are pinned in fixed point
// (milli-rps, milli-seconds, nano-seconds) so each draw is an exact int64;
// the journal config carries the same settings as a cross-check.
func (c *runCtx) pinServe() error {
	ar, err := serve.ParseArrival(c.cfg.Arrival)
	if err != nil {
		return err
	}
	arrivalCode := int64(0)
	if ar == serve.ArrivalBursty {
		arrivalCode = 1
	}
	c.serveCfg = serve.Config{
		Platform:   workload.Table5Platforms()[0].Plat, // Carmel Host
		Arrival:    serve.ArrivalPoisson,
		RPS:        float64(c.pin("serve/rps_milli", int64(c.cfg.RPS*1000))) / 1000,
		DurationS:  float64(c.pin("serve/duration_ms", int64(c.cfg.DurationS*1000))) / 1000,
		SLOMicros:  float64(c.pin("serve/slo_ns", int64(c.cfg.SLOMicros*1000))) / 1000,
		QueueBound: int(c.pin("serve/queue", serve.DefaultQueueBound)),
		Seed:       c.pin("serve/seed", serve.DefaultSeed),
	}
	if c.pin("serve/arrival", arrivalCode) == 1 {
		c.serveCfg.Arrival = serve.ArrivalBursty
	}
	return nil
}

// printServe runs the always-on service harness: one fleet cell per
// (app, zone-id regime), each calibrated on private emulated machines and
// churned through the real lz_alloc/lz_free paths, then simulated across
// its operating points in virtual time.
func (c *runCtx) printServe() error {
	cfg := c.serveCfg
	cells, err := serve.Sweep(c.fleet, cfg, serve.DefaultSpecs())
	if err != nil {
		return err
	}
	c.serveCells = append(c.serveCells, cells...)
	if c.json {
		for _, cell := range cells {
			c.emit(map[string]any{
				"kind": "serve-cell", "machine": cell.Machine, "app": cell.App,
				"regime": cell.Regime, "live_zones": cell.LiveZones,
				"base_cycles": cell.BaseCycles, "churn_pair_cycles": cell.PairCycles,
				"capacity_rps": cell.CapacityRPS, "slo_us": cell.SLOMicros,
				"churn_pairs": cell.Churn.Pairs, "zone_id_high_water": cell.Churn.ZoneIDHighWater,
				"ttbrtab_pages": cell.Churn.TTBRTabPages, "asid_recycles": cell.Churn.ASIDRecycles,
				"asid_rolls": cell.Churn.ASIDRolls,
			})
			for _, r := range cell.Rows {
				c.emit(map[string]any{
					"kind": "serve", "machine": cell.Machine, "app": r.App,
					"regime": r.Regime, "arrival": string(r.Arrival), "policy": r.Policy,
					"offered_rps": r.OfferedRPS, "utilization": r.Utilization,
					"duration_s": r.DurationS, "arrivals": r.Arrivals,
					"served": r.Served, "shed": r.Shed, "queue_max": r.QueueMax,
					"p50_us": r.P50us, "p99_us": r.P99us, "p999_us": r.P999us,
					"slo_us": r.SLOMicros, "goodput_rps": r.GoodputRPS,
					"slo_attain_pct": r.SLOAttainPct,
				})
			}
		}
		return nil
	}
	fmt.Fprintf(c.out, "Service harness: %s arrivals, %gs per operating point\n", cfg.Arrival, cfg.DurationS)
	for _, cell := range cells {
		fmt.Fprintf(c.out, "  %s %s lzid-%d: %d live zones, %.0f base + %.0f churn-pair cycles, capacity %.0f rps, SLO %.0fus\n",
			cell.Machine, cell.App, cell.Regime, cell.LiveZones, cell.BaseCycles, cell.PairCycles, cell.CapacityRPS, cell.SLOMicros)
		fmt.Fprintf(c.out, "    churn: %d pairs, id high-water %d, TTBRTab %d page(s), %d ASID recycles, %d rolls\n",
			cell.Churn.Pairs, cell.Churn.ZoneIDHighWater, cell.Churn.TTBRTabPages, cell.Churn.ASIDRecycles, cell.Churn.ASIDRolls)
		w := c.table()
		fmt.Fprintln(w, "    policy\trps\tutil\tserved\tshed\tqmax\tp50us\tp99us\tp999us\tgoodput\tslo%")
		for _, r := range cell.Rows {
			fmt.Fprintf(w, "    %s\t%.0f\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.1f\n",
				r.Policy, r.OfferedRPS, r.Utilization, r.Served, r.Shed, r.QueueMax,
				r.P50us, r.P99us, r.P999us, r.GoodputRPS, r.SLOAttainPct)
		}
		w.Flush()
	}
	fmt.Fprintln(c.out)
	return nil
}

// pinChaos pins the sweep's case count and plan seed.
func (c *runCtx) pinChaos() error {
	c.chaosN = int(c.pin("chaos/cases", int64(c.chaosN)))
	c.chaosSeed = c.pin("chaos/seed", c.chaosSeed)
	if c.chaosN < 1 {
		return fmt.Errorf("chaos suite needs -chaos 1 or more, got %d", c.chaosN)
	}
	return nil
}

// printChaos derives and runs the fault-injection sweep. Every case must
// land in its injection's expectation class; each failing case is
// journalled for standalone replay when -chaosout is set.
func (c *runCtx) printChaos() error {
	n, seed := c.chaosN, c.chaosSeed
	results, err := replay.ChaosSweep(c.fleet, n, seed)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		if c.json {
			c.emit(map[string]any{
				"kind": "chaos", "case": r.Case, "scenario": r.Scenario,
				"injection": r.Injection, "expect": r.Expect, "outcome": r.Outcome,
				"applied": r.Applied, "pass": r.Pass, "delta": r.Delta, "failure": r.Failure,
			})
		} else {
			status := "ok  "
			if !r.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(c.out, "  %s case %2d  %-13s %-18s expect=%-9s outcome=%-12s applied=%d",
				status, r.Case, r.Scenario, r.Injection, r.Expect, r.Outcome, r.Applied)
			if r.Delta != "" {
				fmt.Fprintf(c.out, "  (%s)", r.Delta)
			}
			if r.Failure != "" {
				fmt.Fprintf(c.out, "  %s", r.Failure)
			}
			fmt.Fprintln(c.out)
		}
		if r.Pass {
			continue
		}
		failed++
		if c.chaosOut != "" {
			j := replay.ChaosJournal(replay.DerivePlans(n, seed)[r.Case], r.Failure)
			p := filepath.Join(c.chaosOut, fmt.Sprintf("chaos-case-%03d.journal.json", r.Case))
			if err := j.Write(p); err != nil {
				return err
			}
			fmt.Fprintf(c.log, "lzbench: journalled failing chaos case %d at %s\n", r.Case, p)
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos sweep: %d of %d cases diverged silently or missed their expectation class", failed, n)
	}
	if !c.json {
		fmt.Fprintf(c.out, "chaos sweep: all %d cases landed in their expectation class\n", n)
	}
	return nil
}

// csvPath is where -csv writes one figure's series for one platform.
func (c *runCtx) csvPath(figure int, plat workload.Platform) string {
	return filepath.Join(c.csvDir, fmt.Sprintf("figure%d_%s.csv", figure, strings.ReplaceAll(plat.String(), " ", "_")))
}

func (c *runCtx) writeFigureCSV(figure int, plat workload.Platform, series []workload.FigureSeries) error {
	if c.csvDir == "" {
		return nil
	}
	return writeFile(c.csvPath(figure, plat), func(w io.Writer) error {
		fmt.Fprint(w, "x")
		for _, s := range series {
			fmt.Fprintf(w, ",%s", s.Variant)
		}
		fmt.Fprintln(w)
		for i, pt := range series[0].Points {
			fmt.Fprintf(w, "%d", pt.X)
			for _, s := range series {
				fmt.Fprintf(w, ",%.1f", s.Points[i].Tput)
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}

func (c *runCtx) writeNVMCSV(plat workload.Platform, series []workload.NVMSeries) error {
	if c.csvDir == "" {
		return nil
	}
	return writeFile(c.csvPath(5, plat), func(w io.Writer) error {
		fmt.Fprint(w, "domains")
		for _, s := range series {
			fmt.Fprintf(w, ",%s", s.Variant)
		}
		fmt.Fprintln(w)
		for i, d := range workload.NVMDomainCounts {
			fmt.Fprintf(w, "%d", d)
			for _, s := range series {
				fmt.Fprintf(w, ",%.2f", s.OverheadPct[i])
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}
