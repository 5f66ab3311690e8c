package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/replay"
	"lightzone/internal/workload"
)

// workloadDef names a workload and builds its inputs from the seed. Why
// each workload is here is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	make func(seed int64, f *workload.Fleet) workloadRun
}

// workloadRun is one workload's inputs, built from the seed.
type workloadRun interface {
	// oracle runs every distinct input once on the slow pipeline (decode
	// cache, host fastpaths and traces off) and keeps its outputs.
	oracle() error
	// unit runs one unit of work and checks its outputs against the
	// oracle (checks are skipped until oracle has run).
	unit(u *unitCtx) error
	// probeConfig is the domain-switch cell the traced run's probes use:
	// a cell of the kind this workload runs.
	probeConfig() workload.DomainSwitchConfig
}

const (
	switchHotIters = 100_000 // per Table 5 cell of one switch-hot round
	paperTable5    = 10_000  // Table5Sweep iterations of one paper-eval pass
	chaosCases     = 64      // cases per chaos batch
	chaosSeedShift = 64 << 10
)

var workloads = []workloadDef{
	{"switch-hot", func(seed int64, _ *workload.Fleet) workloadRun { return newSwitchHot(seed) }},
	{"paper-eval", func(_ int64, f *workload.Fleet) workloadRun { return &paperEval{f: f} }},
	{"fork-fleet", func(seed int64, _ *workload.Fleet) workloadRun { return newForkFleet(seed) }},
	{"chaos", func(seed int64, f *workload.Fleet) workloadRun {
		return &chaosRun{f: f, planSeed: seed + chaosSeedShift}
	}},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// slowPipeline switches every vCPU booted from now on to the plain
// fetch-decode-Step pipeline and returns a function restoring the previous
// defaults.
func slowPipeline() (restore func()) {
	dec, fast, tr := cpu.DecodeCacheDefault(), cpu.HostFastpathDefault(), cpu.TraceDefault()
	cpu.SetDecodeCacheDefault(false)
	cpu.SetHostFastpathDefault(false)
	cpu.SetTraceDefault(false)
	return func() {
		cpu.SetDecodeCacheDefault(dec)
		cpu.SetHostFastpathDefault(fast)
		cpu.SetTraceDefault(tr)
	}
}

// cellDigest is the architectural outcome of a finished cell: registers,
// memory, cycles, instructions, TLB statistics, the measured interval and
// how the process ended.
func cellDigest(env *workload.Env, p *kernel.Process) (replay.Digest, error) {
	d := replay.CaptureDigest(env.M.CPU, env.M.PM)
	m, err := env.Measured()
	if err != nil {
		return d, err
	}
	d.Measured = m
	d.Killed, d.KillMsg = p.Killed, p.KillMsg
	return d, nil
}

// oracleCells runs each config cold on the slow pipeline.
func oracleCells(cfgs []workload.DomainSwitchConfig) ([]replay.Digest, error) {
	out := make([]replay.Digest, len(cfgs))
	for i, cfg := range cfgs {
		cfg.DisableDecodeCache, cfg.DisableHostFastpaths = true, true
		env, p, err := workload.PrepareDomainSwitch(cfg)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", cellName(cfg), err)
		}
		if err := env.Run(p, workload.DomainSwitchBudget(cfg)); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", cellName(cfg), err)
		}
		if out[i], err = cellDigest(env, p); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", cellName(cfg), err)
		}
		if p.Killed {
			return nil, fmt.Errorf("oracle %s: killed: %s", cellName(cfg), p.KillMsg)
		}
	}
	return out, nil
}

func cellName(cfg workload.DomainSwitchConfig) string {
	return fmt.Sprintf("%s %s-%d", cfg.Platform, cfg.Variant, cfg.Domains)
}

// checkCell compares a finished cell against its oracle digest (want is
// nil before the oracle has run).
func checkCell(cfg workload.DomainSwitchConfig, got replay.Digest, want []replay.Digest, i int) error {
	if want != nil && !got.Equal(want[i]) {
		return fmt.Errorf("%s differs from the oracle: %s", cellName(cfg), want[i].Delta(got))
	}
	return nil
}

// switchHot runs four Table 5 cells per unit, each on a freshly booted
// machine driven for switchHotIters switches.
type switchHot struct {
	cfgs []workload.DomainSwitchConfig
	want []replay.Digest
}

func newSwitchHot(seed int64) *switchHot {
	cortex := workload.Platform{Prof: arm64.ProfileCortexA55()}
	carmel := workload.Platform{Prof: arm64.ProfileCarmel()}
	guest := workload.Platform{Prof: arm64.ProfileCarmel(), Guest: true}
	cell := func(p workload.Platform, v workload.Variant, d int) workload.DomainSwitchConfig {
		return workload.DomainSwitchConfig{Platform: p, Variant: v, Domains: d, Iters: switchHotIters, Seed: seed}
	}
	return &switchHot{cfgs: []workload.DomainSwitchConfig{
		cell(cortex, workload.VariantLZTTBR, 128),
		cell(guest, workload.VariantLZTTBR, 32),
		cell(carmel, workload.VariantLZPAN, 1),
		cell(cortex, workload.VariantWatchpoint, 3),
	}}
}

func (w *switchHot) oracle() (err error) {
	w.want, err = oracleCells(w.cfgs)
	return err
}

func (w *switchHot) unit(u *unitCtx) error {
	for i, cfg := range w.cfgs {
		_, got, err := u.runCell(cfg, "workload.prepare", workload.PrepareDomainSwitch)
		if err != nil {
			return err
		}
		if err := checkCell(cfg, got, w.want, i); err != nil {
			return err
		}
	}
	return nil
}

func (w *switchHot) probeConfig() workload.DomainSwitchConfig { return w.cfgs[0] }

// forkFleet runs one short cell per unit, forked from the zygote pool.
type forkFleet struct {
	cfg  workload.DomainSwitchConfig
	want []replay.Digest
}

func newForkFleet(seed int64) *forkFleet {
	return &forkFleet{cfg: workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.VariantLZTTBR, Domains: 32, Iters: 1000, Seed: seed,
	}}
}

func (w *forkFleet) oracle() (err error) {
	w.want, err = oracleCells([]workload.DomainSwitchConfig{w.cfg})
	return err
}

func (w *forkFleet) unit(u *unitCtx) error {
	_, got, err := u.runCell(w.cfg, "workload.fork", workload.ForkDomainSwitch)
	if err != nil {
		return err
	}
	return checkCell(w.cfg, got, w.want, 0)
}

func (w *forkFleet) probeConfig() workload.DomainSwitchConfig { return w.cfg }

// paperPass is everything one paper-eval pass returns.
type paperPass struct {
	Table4    [][]workload.Table4Row
	Table5    []workload.Table5Cell
	Figures   [][]workload.FigureCell
	Pentest   [][]workload.PentestResult
	Ablations [][]workload.AblationResult
}

// paperEval runs the sweeps behind `lzbench -all`'s tables and figures.
// Their seeds are the paper's (42 and 11), so the run seed is unused.
type paperEval struct {
	f    *workload.Fleet
	want *[sha256.Size]byte
}

// pass runs one pass of the sweeps, each in its own span.
func (w *paperEval) pass(u *unitCtx) (paperPass, error) {
	f := w.f
	var r paperPass
	steps := []struct {
		name string
		run  func() error
	}{
		{"suite.table4", func() (err error) { r.Table4, err = f.Table4Sweep(); return err }},
		{"suite.table5", func() (err error) { r.Table5, err = f.Table5Sweep(paperTable5); return err }},
		{"suite.figure3", func() error { return r.figure(f, 3) }},
		{"suite.figure4", func() error { return r.figure(f, 4) }},
		{"suite.figure5", func() error { return r.figure(f, 5) }},
		{"suite.pentest", func() error {
			for _, p := range workload.AllPlatforms() {
				res, err := f.PentestSweep(p)
				if err != nil {
					return err
				}
				r.Pentest = append(r.Pentest, res)
			}
			return nil
		}},
		{"suite.ablations", func() error {
			for _, prof := range arm64.Profiles() {
				res, err := f.AblationSweep(prof)
				if err != nil {
					return err
				}
				r.Ablations = append(r.Ablations, res)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := u.call(s.name, s.run); err != nil {
			return r, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return r, nil
}

func (r *paperPass) figure(f *workload.Fleet, n int) error {
	cells, err := f.FigureSweep(n)
	r.Figures = append(r.Figures, cells)
	return err
}

func (r paperPass) hash() ([sha256.Size]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(data), nil
}

func (w *paperEval) oracle() error {
	restore := slowPipeline()
	defer restore()
	r, err := w.pass(&unitCtx{})
	if err != nil {
		return fmt.Errorf("oracle pass: %w", err)
	}
	h, err := r.hash()
	if err != nil {
		return err
	}
	w.want = &h
	return nil
}

func (w *paperEval) unit(u *unitCtx) error {
	r, err := w.pass(u)
	if err != nil {
		return err
	}
	return u.call("bench.check", func() error {
		h, err := r.hash()
		if err != nil {
			return err
		}
		if w.want != nil && h != *w.want {
			return fmt.Errorf("paper-eval pass differs from the oracle pass")
		}
		return nil
	})
}

func (w *paperEval) probeConfig() workload.DomainSwitchConfig {
	return workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.VariantLZTTBR, Domains: 128, Iters: paperTable5, Seed: workload.Table5Seed,
	}
}

// chaosRun runs one replay.ChaosSweep batch per unit. Every batch uses the
// same plan seed, so every unit is the same 64 cases.
type chaosRun struct {
	f        *workload.Fleet
	planSeed int64
	want     []replay.ChaosResult
}

func (w *chaosRun) sweep() ([]replay.ChaosResult, error) {
	res, err := replay.ChaosSweep(w.f, chaosCases, w.planSeed)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if !r.Pass {
			return nil, fmt.Errorf("chaos case %d (%s/%s) failed: %s", r.Case, r.Scenario, r.Injection, r.Failure)
		}
	}
	return res, nil
}

func (w *chaosRun) oracle() error {
	restore := slowPipeline()
	defer restore()
	res, err := w.sweep()
	if err != nil {
		return fmt.Errorf("oracle batch: %w", err)
	}
	w.want = res
	return nil
}

func (w *chaosRun) unit(u *unitCtx) error {
	var res []replay.ChaosResult
	if err := u.call("replay.chaos_sweep", func() (err error) { res, err = w.sweep(); return err }); err != nil {
		return err
	}
	return u.call("bench.check", func() error {
		if w.want != nil && !reflect.DeepEqual(res, w.want) {
			return fmt.Errorf("chaos batch differs from the oracle batch")
		}
		return nil
	})
}

func (w *chaosRun) probeConfig() workload.DomainSwitchConfig {
	scn, _ := replay.ScenarioByName("ttbr-8")
	return scn.Config()
}
