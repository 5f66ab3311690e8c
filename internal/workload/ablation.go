package workload

import (
	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Ablations of the paper's §5.2 trap optimizations and §5.1.2 design
// choices: each ablation disables exactly one mechanism and measures the
// resulting cost on the path it protects, making every optimization's
// contribution causal and quantified.

// AblationResult is one ablation measurement.
type AblationResult struct {
	Name      string
	Metric    string
	Optimized float64
	Ablated   float64
}

// Factor returns the slowdown the ablation causes.
func (r AblationResult) Factor() float64 {
	if r.Optimized == 0 {
		return 0
	}
	return r.Ablated / r.Optimized
}

// RunAblations measures every ablation on one cost profile. The eight
// underlying measurements are independent (each boots a private machine),
// so they are sharded across a default-width fleet; see
// Fleet.AblationSweep for the row assembly.
func RunAblations(prof *arm64.Profile) ([]AblationResult, error) {
	return NewFleet(0).AblationSweep(prof)
}

// measureLZSyscallOpts measures a warm LightZone host syscall under the
// given optimization switches.
func measureLZSyscallOpts(prof *arm64.Profile, hopts hyp.Opts, copts core.Opts) (float64, error) {
	plat := Platform{prof, false}
	env, err := NewEnv(plat)
	if err != nil {
		return 0, err
	}
	env.M.Hyp.Opts = hopts
	env.K.DisableRetainOpt = hopts.DisableRetainRegs
	env.LZ.Opts = copts
	return measureSyscall(env, true)
}

// measureLZGuestSyscallOpts measures a warm guest LightZone syscall.
func measureLZGuestSyscallOpts(prof *arm64.Profile, hopts hyp.Opts) (float64, error) {
	plat := Platform{prof, true}
	env, err := NewEnv(plat)
	if err != nil {
		return 0, err
	}
	env.M.Hyp.Opts = hopts
	return measureSyscall(env, true)
}

// measureFaultStorm touches many cold pages from inside LightZone; with
// eager stage-2 mapping each touch costs one forwarded stage-1 fault, with
// the ablation the first access after the stage-1 fix faults again at
// stage 2 (the paper's "back-to-back page faults").
func measureFaultStorm(prof *arm64.Profile, copts core.Opts) (float64, error) {
	const (
		pages = 64
		base  = uint64(0x5200_0000)
	)
	plat := Platform{prof, false}
	env, err := NewEnv(plat)
	if err != nil {
		return 0, err
	}
	env.LZ.Opts = copts
	a := arm64.NewAsm()
	svcCall(a, core.SysLZEnter, 1, uint64(core.SanTTBR))
	hvcCall(a, kernel.SysMmap, base, pages*mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite))
	hvcCall(a, SysMarkBegin)
	a.MovImm(10, base)
	a.MovImm(11, pages)
	a.MovImm(12, mem.PageSize)
	a.Label("touch")
	a.Emit(arm64.STRImm(11, 10, 0, 3))
	a.Emit(arm64.ADDReg(10, 10, 12))
	a.Emit(arm64.SUBSImm(11, 11, 1))
	a.BCond(arm64.CondNE, "touch")
	hvcCall(a, SysMarkEnd)
	hvcCall(a, kernel.SysExit, 0)
	p, err := env.NewProcess("fault-probe", a, nil, nil)
	if err != nil {
		return 0, err
	}
	return env.measure(p, 1_000_000, pages)
}
