package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lightzone/internal/arm64"
	"lightzone/internal/arm64/absint"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
	"lightzone/internal/verify"
	"lightzone/internal/workload"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where a traced run writes its spans
	tier     string

	// units > 0 makes every measured phase run exactly that many units,
	// ignoring seconds (the tests use it).
	units int
	// setups is how many times set-up is timed, each in a fresh process
	// running self; 0 skips the set-up timing (setup_s reads 0).
	setups int
	self   string
	// probeSeconds bounds how long the traced run's probes repeat.
	probeSeconds float64
}

// bench is one run in progress.
type bench struct {
	opts  options
	fleet *workload.Fleet
	w     workloadRun

	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// workers is the closed loop's client count: one per CPU, at most two.
func workers() int { return min(2, runtime.NumCPU()) }

// applyTier sets the process-wide execution-tier defaults before set-up.
// Only diagnostic runs use anything but "default".
func applyTier(tier string) error {
	switch tier {
	case "default":
	case "notrace":
		cpu.SetTraceDefault(false)
	case "nofastpath":
		cpu.SetHostFastpathDefault(false)
	default:
		return fmt.Errorf("unknown -cpu-tier %q (want default, notrace or nofastpath)", tier)
	}
	return nil
}

func newBench(o options) (*bench, error) {
	def, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := applyTier(o.tier); err != nil {
		return nil, err
	}
	b := &bench{opts: o, fleet: workload.NewFleet(workers())}
	b.w = def.make(o.seed, b.fleet)
	return b, nil
}

// note counts one attempted unit and whether it failed.
func (b *bench) note(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
}

// setupUnit is what a set-up process does: build the workload and run one
// unchecked warm-up unit.
func setupUnit(o options) error {
	b, err := newBench(o)
	if err != nil {
		return err
	}
	return b.w.unit(&unitCtx{})
}

// setupTimes runs set-up opts.setups times, each in a fresh process, and
// returns the wall time of each from process start to its exit.
func (b *bench) setupTimes() ([]float64, error) {
	var out []float64
	for i := 0; i < b.opts.setups; i++ {
		cmd := exec.Command(b.opts.self, "-workload", b.opts.workload,
			"-seed", fmt.Sprint(b.opts.seed), "-cpu-tier", b.opts.tier, "-setup-unit")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// phaseResult is what one measured phase saw.
type phaseResult struct {
	lat   []time.Duration
	wall  time.Duration // phase start to the end of its last unit
	perf  cpu.HostPerf
	trace cpu.TraceStats
	forks int64
	alloc uint64
	gcs   uint32
	mc    machineCounters
	spans []span
}

func (p *phaseResult) unitsPerSec() float64 { return ratio(float64(len(p.lat)), p.wall.Seconds()) }

// phaseChunk is how many units one Fleet.Run may dispatch; a phase calls
// Run again until the deadline passes.
const phaseChunk = 4096

// phase runs units closed-loop on the fleet's workers until seconds have
// passed (a unit started before the deadline runs to its end), recording
// spans into tr when it is non-nil. Process-wide counters are read as
// deltas over the phase, which runs nothing else.
func (b *bench) phase(seconds float64, tr *tracer) *phaseResult {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	perf0, trace0, forks0 := cpu.ReadHostPerf(), cpu.ReadTraceStats(), workload.ZygoteForkCount()

	ph := &phaseResult{}
	var mu sync.Mutex
	var stop atomic.Bool
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	end := start
	cell := func(int) error {
		if stop.Load() {
			return nil
		}
		if b.opts.units == 0 && !time.Now().Before(deadline) {
			stop.Store(true)
			return nil
		}
		u := &unitCtx{}
		if tr != nil {
			u.tr = tr.unit("unit")
		}
		t0 := time.Now()
		err := b.w.unit(u)
		t1 := time.Now()
		if u.tr != nil {
			u.tr.finish()
		}
		b.note(err)
		mu.Lock()
		ph.lat = append(ph.lat, t1.Sub(t0))
		ph.mc.add(u.mc)
		if t1.After(end) {
			end = t1
		}
		mu.Unlock()
		return nil
	}
	// Cells report failures through b.note and always return nil, so
	// Fleet.Run has no error to return.
	if b.opts.units > 0 {
		_ = b.fleet.Run(b.opts.units, cell)
	} else {
		for !stop.Load() {
			_ = b.fleet.Run(phaseChunk, cell)
		}
	}
	ph.wall = end.Sub(start)

	runtime.ReadMemStats(&ms1)
	ph.perf = cpu.ReadHostPerf().Sub(perf0)
	ph.trace = cpu.ReadTraceStats().Sub(trace0)
	ph.forks = workload.ZygoteForkCount() - forks0
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	if tr != nil {
		ph.spans = tr.all()
	}
	return ph
}

// probeResult holds the traced run's probe measurements.
type probeResult struct {
	spans    []span
	decodeNs float64 // arm64.Decode per instruction word
	proveUs  float64 // absint.ProveBlock per decoded block
	verifyMs float64 // verify.RunMachine on a finished machine
}

// minProbeSamples is the fewest samples a probe takes, however long.
const minProbeSamples = 3

// probes times the layer calls the workload's units do not make
// themselves, on the workload's probe cell: cold and forked cells,
// interleaved so both see the same host conditions; then decode, proof and
// verifier calls on the last finished machine; and, unless the units
// already ran them, one pass of the paper sweeps. Probe spans go to tr
// after the traced phase's.
func (b *bench) probes(tr *tracer, phaseSpans []span) (*probeResult, error) {
	cfg := b.w.probeConfig()
	each := time.Duration(b.opts.probeSeconds * float64(time.Second))
	// Pool the zygote first so no fork sample pays its cold preparation.
	if _, _, err := workload.ForkDomainSwitch(cfg); err != nil {
		return nil, fmt.Errorf("probe zygote: %w", err)
	}
	var last *workload.Env
	t0 := time.Now()
	for i := 0; i < minProbeSamples || time.Since(t0) < each; i++ {
		for k := 0; k < 2; k++ {
			name, prepName, prep := "probe.cold_cell", "workload.prepare", prepareFunc(workload.PrepareDomainSwitch)
			if (i+k)%2 == 1 {
				name, prepName, prep = "probe.fork_cell", "workload.fork", workload.ForkDomainSwitch
			}
			u := &unitCtx{tr: tr.unit(name)}
			env, _, err := u.runCell(cfg, prepName, prep)
			u.tr.finish()
			if err != nil {
				return nil, fmt.Errorf("probe cell: %w", err)
			}
			last = env
		}
	}
	if len(spanMs(phaseSpans, "suite.table4")) == 0 {
		u := &unitCtx{tr: tr.unit("probe.paper_pass")}
		_, err := (&paperEval{f: b.fleet}).pass(u)
		u.tr.finish()
		if err != nil {
			return nil, fmt.Errorf("probe paper pass: %w", err)
		}
	}

	pb := &probeResult{spans: tr.all()[len(phaseSpans):]}
	pb.decodeNs, pb.proveUs = decodeProbe(last, each/5)
	var err error
	pb.verifyMs, err = repeatMs(each/5, func() error {
		rep, err := verify.RunMachine(last.M, last.LZ)
		if err != nil {
			return err
		}
		if !rep.Clean() {
			return fmt.Errorf("verifier flagged a clean machine: %s", rep.Findings[0].String())
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("verify probe: %w", err)
	}
	return pb, nil
}

// repeatMs calls fn at least minProbeSamples times and for at least d, and
// returns the median call time in milliseconds.
func repeatMs(d time.Duration, fn func() error) (float64, error) {
	var ms []float64
	t0 := time.Now()
	for len(ms) < minProbeSamples || time.Since(t0) < d {
		c0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(c0))/float64(time.Millisecond))
	}
	return median(ms), nil
}

// probeSink keeps the decode and proof probes' results alive.
var probeSink uint64

// decodeProbe times arm64.Decode over every instruction word in env's
// decoded-block cache, and absint.ProveBlock over every block, each for at
// least d.
func decodeProbe(env *workload.Env, d time.Duration) (nsPerInsn, usPerBlock float64) {
	type block struct {
		pc    uint64
		insns []arm64.Insn
	}
	var words []uint32
	var blocks []block
	for _, bi := range env.M.CPU.DecodedBlocks() {
		bl := block{pc: bi.Page<<mem.PageShift | uint64(bi.Off)}
		for _, w := range bi.Raw {
			bl.insns = append(bl.insns, arm64.Decode(w))
		}
		words = append(words, bi.Raw...)
		blocks = append(blocks, bl)
	}
	if len(words) == 0 {
		return 0, 0
	}
	var sink uint64
	n, t0 := 0, time.Now()
	for n == 0 || time.Since(t0) < d {
		for _, w := range words {
			sink += uint64(arm64.Decode(w).Op)
		}
		n += len(words)
	}
	nsPerInsn = float64(time.Since(t0).Nanoseconds()) / float64(n)
	n, t0 = 0, time.Now()
	for n == 0 || time.Since(t0) < d {
		for _, bl := range blocks {
			sink += uint64(absint.ProveBlock(bl.pc, bl.insns).Insns)
		}
		n += len(blocks)
	}
	usPerBlock = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	probeSink += sink
	return nsPerInsn, usPerBlock
}
