package lightzone

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/workload"
)

// SanPolicy selects the sensitive-instruction sanitization policy (the
// insn_san argument of lz_enter; paper Table 3).
type SanPolicy = core.SanPolicy

// Sanitization policies.
const (
	SanNone = core.SanNone
	SanTTBR = core.SanTTBR
	SanPAN  = core.SanPAN
)

// Permission bits for Protect (paper Table 2).
const (
	PermRead  = core.PermRead
	PermWrite = core.PermWrite
	PermExec  = core.PermExec
	PermUser  = core.PermUser
)

// Prot bits for MapRegion (mmap-style protections).
const (
	ProtRead  = kernel.ProtRead
	ProtWrite = kernel.ProtWrite
	ProtExec  = kernel.ProtExec
)

// PageSize is the platform granule.
const PageSize = mem.PageSize

// Option configures a System.
type Option func(*config)

type config struct {
	profile string
	guest   bool
	memSize uint64
	modOpts core.Opts
}

// WithProfile selects the platform cost model: "carmel" (NVIDIA Jetson
// AGX Xavier) or "cortexa55" (Banana Pi BPI-M5). Default: cortexa55.
func WithProfile(name string) Option {
	return func(c *config) { c.profile = name }
}

// InGuest places applications inside a QEMU/KVM-style guest VM, with the
// LightZone guest kernel module and the Lowvisor handling nested
// virtualization (§5.2.2). Default: VHE host.
func InGuest() Option {
	return func(c *config) { c.guest = true }
}

// WithMemory sets the simulated physical memory size (default 4GB).
func WithMemory(bytes uint64) Option {
	return func(c *config) { c.memSize = bytes }
}

// WithIdentityStage2 disables the fake-physical-address randomization
// layer (the paper's "intuitive" stage-2 translation; ablation, §5.1.2).
func WithIdentityStage2() Option {
	return func(c *config) { c.modOpts.IdentityPhys = true }
}

// System is a booted simulated platform with LightZone installed.
type System struct {
	env  *workload.Env
	plat workload.Platform
	last map[string]int // pid of the most recent process run under each name
}

// NewSystem boots a platform.
func NewSystem(opts ...Option) (*System, error) {
	cfg := config{profile: "cortexa55", memSize: 4 << 30}
	for _, o := range opts {
		o(&cfg)
	}
	prof, ok := arm64.ProfileByName(cfg.profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q (use \"carmel\" or \"cortexa55\")", cfg.profile)
	}
	plat := workload.Platform{Prof: prof, Guest: cfg.guest}
	env, err := workload.NewEnv(plat)
	if err != nil {
		return nil, err
	}
	env.LZ.Opts = cfg.modOpts
	return &System{env: env, plat: plat, last: map[string]int{}}, nil
}

// Platform describes the booted configuration ("Carmel Host", ...).
func (s *System) Platform() string { return s.plat.String() }

// Result reports a completed program run.
type Result struct {
	ExitCode int
	Killed   bool
	KillMsg  string
	Stdout   string
	// Cycles is the simulated cycle count between MarkBegin/MarkEnd, or 0
	// when the program placed no markers — including a killed program
	// that never reached its MarkEnd (a half-open measurement window is
	// not a valid interval).
	Cycles int64
	// Registers holds the final general-purpose register file.
	Registers [32]uint64
}

// Run assembles and executes a Program to completion.
func (s *System) Run(p *Program) (*Result, error) {
	if p.err != nil {
		return nil, p.err
	}
	proc, err := s.env.NewProcess(p.name, p.a, p.data, p.entries(), p.extraVMAs...)
	if err != nil {
		return nil, err
	}
	s.last[p.name] = proc.PID
	if err := s.env.Run(proc, p.maxTraps); err != nil {
		return nil, err
	}
	// A program killed mid-measurement has no valid interval; report 0
	// cycles rather than failing the whole run.
	cycles, mErr := s.env.Measured()
	if mErr != nil {
		cycles = 0
	}
	res := &Result{
		ExitCode: proc.ExitCode,
		Killed:   proc.Killed,
		KillMsg:  proc.KillMsg,
		Stdout:   proc.Stdout.String(),
		Cycles:   cycles,
	}
	for i := range res.Registers {
		res.Registers[i] = s.env.M.CPU.R(uint8(i))
	}
	return res, nil
}

// Violations returns the number of LightZone-detected isolation
// violations for the most recent process Run under name, or 0 if that
// process never entered LightZone.
func (s *System) Violations(name string) int64 {
	pid, ok := s.last[name]
	if !ok {
		return 0
	}
	p, ok := s.env.K.Process(pid)
	if !ok {
		return 0
	}
	if lp, ok := s.env.LZ.ProcState(p); ok {
		return lp.Violations
	}
	return 0
}

// Stats is a snapshot of simulator counters, for observability in examples
// and tooling.
type Stats struct {
	Cycles       int64
	Instructions int64
	Syscalls     int64
	PageFaults   int64
	TLBHits      uint64
	TLBMisses    uint64
	SchedEvents  int64
}

// Stats returns the current counters of the booted system.
func (s *System) Stats() Stats {
	c := s.env.M.CPU
	return Stats{
		Cycles:       c.Cycles,
		Instructions: c.Insns,
		Syscalls:     s.env.K.Syscalls,
		PageFaults:   s.env.K.PageFaults,
		TLBHits:      c.TLB.Hits,
		TLBMisses:    c.TLB.Misses,
		SchedEvents:  s.env.K.SchedEvents,
	}
}

// EnableTrace attaches an event recorder (capacity = retained events) to
// the LightZone module and returns a dump function for the timeline.
func (s *System) EnableTrace(capacity int) func() string {
	rec := s.env.EnableTrace(capacity)
	return func() string { return rec.Dump() + "counts: " + rec.Summary() }
}
