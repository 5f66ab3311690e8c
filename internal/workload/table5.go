package workload

import (
	"fmt"
	"math/rand"

	"lightzone/internal/arm64"
	"lightzone/internal/baseline"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Table 5 microbenchmark (§8.2): the evaluation program creates many 4KB
// memory domains, attaches each to a unique page table (or marks them all
// as one PAN domain, or registers them as watchpoint domains), then
// randomly switches between domains and accesses 8 bytes of the current
// domain, repeated iters times. The switching loop runs fully emulated:
// the measured cycles are produced by the real call gates, PAN toggles, or
// trap-based ioctls, plus the genuine TLB behaviour of ASID-tagged domain
// mappings.

// domainRegionBase is where the benchmark places its domains (one 4KB page
// per domain, 64KB stride so addresses are computable by a shift).
const (
	domainRegionBase   = uint64(0x5000_0000)
	domainRegionStride = uint64(0x1_0000)
)

// DomainSwitchConfig parameterizes the microbenchmark.
type DomainSwitchConfig struct {
	Platform Platform
	Variant  Variant // LZPAN, LZTTBR or Watchpoint
	Domains  int
	Iters    int
	Seed     int64
	// DisableDecodeCache runs the benchmark with the decoded-block cache
	// off, and with it block replay, batched charging and traces: every
	// instruction goes through the Step interpreter. For the cycle-identity
	// tests and the host-speed oracle; emulated cycles must not change.
	DisableDecodeCache bool
	// DisableHostFastpaths runs with the micro-TLBs off, so every access
	// runs the full Translate — for the identity tests; emulated cycles
	// must not change.
	DisableHostFastpaths bool
}

// applyPipeline applies the config's pipeline ablations to a prepared
// machine. A cold boot and a zygote fork both go through it, after the
// vCPU has taken the process defaults.
func (cfg DomainSwitchConfig) applyPipeline(env *Env) {
	if cfg.DisableDecodeCache {
		env.M.CPU.SetDecodeCache(false)
	}
	if cfg.DisableHostFastpaths {
		env.M.CPU.SetHostFastpaths(false)
	}
}

// DomainSwitchResult is one Table 5 cell.
type DomainSwitchResult struct {
	Config      DomainSwitchConfig
	AvgCycles   float64
	TotalCycles int64 // exact measured cycles (for cycle-identity checks)
}

// RunDomainSwitch executes the microbenchmark and returns the average
// cycles per switch-and-access.
func RunDomainSwitch(cfg DomainSwitchConfig) (DomainSwitchResult, error) {
	res, _, err := runDomainSwitch(cfg, nil)
	return res, err
}

// runDomainSwitch is RunDomainSwitch with the environment exposed; env may
// be pre-booted (pipeline inspection attaches a trace recorder first) or
// nil to boot a fresh one.
func runDomainSwitch(cfg DomainSwitchConfig, env *Env) (DomainSwitchResult, *Env, error) {
	res := DomainSwitchResult{Config: cfg}
	env, p, err := prepareDomainSwitch(cfg, env)
	if err != nil {
		return res, nil, err
	}
	if err := env.Run(p, domainSwitchBudget(cfg)); err != nil {
		return res, nil, err
	}
	if p.Killed {
		return res, nil, fmt.Errorf("benchmark killed: %s", p.KillMsg)
	}
	if res.TotalCycles, err = env.Measured(); err != nil {
		return res, nil, err
	}
	res.AvgCycles = float64(res.TotalCycles) / float64(cfg.Iters)
	return res, env, nil
}

// domainSwitchBudget is the trap budget of one benchmark run.
func domainSwitchBudget(cfg DomainSwitchConfig) int64 {
	return int64(cfg.Iters)*4 + 100_000
}

// DomainSwitchBudget exposes the run's trap budget for callers that drive
// the process in slices (the record/replay chaos engine).
func DomainSwitchBudget(cfg DomainSwitchConfig) int64 { return domainSwitchBudget(cfg) }

// DomainVA returns the virtual address of domain d's page, for callers that
// perturb specific domain translations (the chaos engine's targeted TLBI).
func DomainVA(d int) mem.VA {
	return mem.VA(domainRegionBase + uint64(d)*domainRegionStride)
}

// PrepareDomainSwitch boots an environment and assembles the benchmark
// process without running it, so external drivers (the chaos engine in
// internal/replay) can run the process in trap-budget slices — Env.Run
// returns kernel.ErrTrapBudget at each slice boundary, a clean
// architectural point for fault injection — instead of to completion.
func PrepareDomainSwitch(cfg DomainSwitchConfig) (*Env, *kernel.Process, error) {
	return prepareDomainSwitch(cfg, nil)
}

// prepareDomainSwitch boots the environment (unless one is supplied) and
// assembles the benchmark process without running it. It always boots
// cold; ForkDomainSwitch, which also uses it to prepare a zygote on first
// use, is the forking alternative. Callers other than runDomainSwitch drive
// the process in trap-budget slices (Env.Run returns kernel.ErrTrapBudget
// until the program exits) — the cross-machine isolation tests interleave
// two machines this way.
func prepareDomainSwitch(cfg DomainSwitchConfig, env *Env) (*Env, *kernel.Process, error) {
	if cfg.Domains <= 0 || cfg.Iters <= 0 {
		return nil, nil, fmt.Errorf("bad config %+v", cfg)
	}
	if cfg.Variant == VariantWatchpoint && cfg.Domains > baseline.MaxWatchpointDomains {
		return nil, nil, baseline.ErrTooManyDomains
	}
	if cfg.Variant == VariantNone {
		return nil, nil, fmt.Errorf("the unprotected variant has no domain switches")
	}
	if env == nil {
		var err error
		env, err = NewEnv(cfg.Platform)
		if err != nil {
			return nil, nil, err
		}
	}
	cfg.applyPipeline(env)

	// Pre-computed random domain sequence, one byte per iteration.
	rng := rand.New(rand.NewSource(cfg.Seed))
	seq := make([]byte, cfg.Iters)
	for i := range seq {
		seq[i] = byte(rng.Intn(cfg.Domains))
	}

	a := arm64.NewAsm()
	var entries []core.GateEntry
	regionLen := uint64(cfg.Domains) * domainRegionStride

	switch cfg.Variant {
	case VariantLZTTBR:
		entries = buildTTBRSwitchProgram(a, cfg)
	case VariantLZPAN:
		buildPANSwitchProgram(a, cfg)
	case VariantWatchpoint:
		buildWatchpointSwitchProgram(a, cfg)
	case VariantLwC:
		buildLwCSwitchProgram(a, cfg)
	default:
		return nil, nil, fmt.Errorf("variant %q has no domain-switch mechanism", cfg.Variant)
	}

	p, err := env.NewProcess("table5", a, seq, entries, kernel.VMA{
		Start: mem.VA(domainRegionBase),
		End:   mem.VA(domainRegionBase + regionLen),
		Prot:  kernel.ProtRead | kernel.ProtWrite,
		Name:  "domains",
	})
	if err != nil {
		return nil, nil, err
	}
	return env, p, nil
}

// emitSwitchLoop emits the shared measurement loop skeleton. perIter emits
// the body given (x12 = domain index). Register allocation keeps clear of
// the call gate's scratch registers (x16-x20, x30): x10 sequence pointer,
// x11 remaining iterations, x12 current domain, x13/x14 scratch.
func emitSwitchLoop(a *arm64.Asm, cfg DomainSwitchConfig, hvc bool, perIter func()) {
	mark := func(num uint64) {
		a.MovImm(8, num)
		if hvc {
			a.Emit(arm64.HVC(core.HVCSyscall))
		} else {
			a.Emit(arm64.SVC(0))
		}
	}
	// Warm the sequence pages and domain pages deterministically before
	// measurement (the paper measures steady state after warm-up).
	a.MovImm(1, uint64(kernel.DataBase))
	a.MovImm(2, uint64(cfg.Iters))
	a.MovImm(4, mem.PageSize) // page stride (too wide for imm12)
	a.Label("warm_seq")
	a.Emit(arm64.LDRImm(3, 1, 0, 0))
	a.Emit(arm64.ADDReg(1, 1, 4))
	a.Emit(arm64.SUBSReg(2, 2, 4))
	a.BCond(arm64.CondGT, "warm_seq")

	// Loop-invariant bases live in x5 (domain region) and x6 (set by the
	// variant body builder when needed).
	a.MovImm(5, domainRegionBase)
	mark(SysMarkBegin)
	a.MovImm(10, uint64(kernel.DataBase))
	a.MovImm(11, uint64(cfg.Iters))
	a.Label("loop")
	a.Emit(arm64.LDRImm(12, 10, 0, 0)) // x12 = seq[j] (byte)
	a.Emit(arm64.ADDImm(10, 10, 1, false))
	perIter()
	a.Emit(arm64.SUBSImm(11, 11, 1))
	a.BCond(arm64.CondNE, "loop")
	mark(SysMarkEnd)
	if hvc {
		a.MovImm(0, 0)
		a.MovImm(8, kernel.SysExit)
		a.Emit(arm64.HVC(core.HVCSyscall))
	} else {
		a.MovImm(0, 0)
		a.MovImm(8, kernel.SysExit)
		a.Emit(arm64.SVC(0))
	}
}

// emitDomainAccess emits the 8-byte access to the current domain:
// x13 = x5 (domain region base) + (x12 << 16).
func emitDomainAccess(a *arm64.Asm) {
	a.Emit(arm64.ADDShifted(13, 5, 12, 16))
	a.Emit(arm64.LDRImm(9, 13, 0, 3))
}

// buildTTBRSwitchProgram builds the scalable-isolation benchmark: one page
// table and one call gate per domain; the loop jumps through the gate of
// the randomly selected domain. All gates share one registered entry (the
// loop's resume point).
func buildTTBRSwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) []core.GateEntry {
	svcCall(a, core.SysLZEnter, 1, uint64(core.SanTTBR))
	// Setup: per-domain page table, gate binding, and protection.
	for d := 0; d < cfg.Domains; d++ {
		hvcCall(a, core.SysLZAlloc)
		// Page-table ids are sequential (base is 0): domain d gets d+1.
		hvcCall(a, core.SysLZMapGatePgt, uint64(d+1), uint64(d))
		addr := domainRegionBase + uint64(d)*domainRegionStride
		hvcCall(a, core.SysLZProt, addr, mem.PageSize, uint64(d+1), core.PermRead|core.PermWrite)
	}
	a.MovImm(6, core.GateCodeBase()) // loop-invariant gate base
	emitSwitchLoop(a, cfg, true, func() {
		// Gate address: gateCodeVA + d*slot; slot is 128 bytes.
		a.Emit(arm64.ADDShifted(13, 6, 12, 7))
		a.ADR(30, "resume")
		a.Emit(arm64.BR(13))
		a.Label("resume")
		emitDomainAccess(a)
	})
	// Every gate validates the same entry: the loop's resume label.
	off, err := a.Offset("resume")
	if err != nil {
		return nil
	}
	entries := make([]core.GateEntry, cfg.Domains)
	for d := range entries {
		entries[d] = core.GateEntry{GateID: d, Entry: uint64(off)}
	}
	return entries
}

// buildPANSwitchProgram builds the efficient-isolation benchmark: all
// domains live in one PAN-protected region; a switch is a PAN toggle pair.
func buildPANSwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) {
	svcCall(a, core.SysLZEnter, 0, uint64(core.SanPAN))
	regionLen := uint64(cfg.Domains) * domainRegionStride
	hvcCall(a, core.SysLZProt, domainRegionBase, regionLen, 0, core.PermRead|core.PermWrite|core.PermUser)
	core.EmitSetPAN(a, 1)
	emitSwitchLoop(a, cfg, true, func() {
		core.EmitSetPAN(a, 0) // grant
		emitDomainAccess(a)
		core.EmitSetPAN(a, 1) // revoke
	})
}

// buildWatchpointSwitchProgram builds the Watchpoint baseline benchmark:
// every switch is an ioctl-style syscall reprogramming the watchpoint
// register pairs.
func buildWatchpointSwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) {
	for d := 0; d < cfg.Domains; d++ {
		addr := domainRegionBase + uint64(d)*domainRegionStride
		svcCall(a, baseline.SysWPProtect, addr, mem.PageSize, uint64(d))
	}
	// Touch each domain page once so demand faults stay out of the
	// measured loop.
	for d := 0; d < cfg.Domains; d++ {
		addr := domainRegionBase + uint64(d)*domainRegionStride
		a.MovImm(1, addr)
		a.Emit(arm64.LDRImm(2, 1, 0, 3))
	}
	emitSwitchLoop(a, cfg, false, func() {
		a.Emit(arm64.MOVReg(0, 12))
		a.MovImm(8, baseline.SysWPSwitch)
		a.Emit(arm64.SVC(0))
		emitDomainAccess(a)
	})
}

// buildLwCSwitchProgram builds the simulated-lwC baseline benchmark: one
// light-weight context per domain, each switch a kernel-mediated context
// switch.
func buildLwCSwitchProgram(a *arm64.Asm, cfg DomainSwitchConfig) {
	for d := 0; d < cfg.Domains; d++ {
		svcCall(a, baseline.SysLwCCreate)
	}
	for d := 0; d < cfg.Domains; d++ {
		addr := domainRegionBase + uint64(d)*domainRegionStride
		a.MovImm(1, addr)
		a.Emit(arm64.LDRImm(2, 1, 0, 3))
	}
	emitSwitchLoop(a, cfg, false, func() {
		a.Emit(arm64.MOVReg(0, 12))
		a.MovImm(8, baseline.SysLwCSwitch)
		a.Emit(arm64.SVC(0))
		emitDomainAccess(a)
	})
}

// svcCall emits a pre-enter syscall (SVC path), clobbering x0..x5 and x8.
func svcCall(a *arm64.Asm, num uint64, args ...uint64) {
	for i, arg := range args {
		a.MovImm(uint8(i), arg)
	}
	a.MovImm(8, num)
	a.Emit(arm64.SVC(0))
}

// hvcCall emits a post-enter syscall through the HVC fast path.
func hvcCall(a *arm64.Asm, num uint64, args ...uint64) {
	for i, arg := range args {
		a.MovImm(uint8(i), arg)
	}
	a.MovImm(8, num)
	a.Emit(arm64.HVC(core.HVCSyscall))
}
