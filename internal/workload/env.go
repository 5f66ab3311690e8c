// Package workload implements the paper's evaluation workloads: the
// domain-switching microbenchmark (Table 5), the Nginx/OpenSSL key
// protection model (Figure 3), the MySQL OLTP model (Figure 4), the NVM
// data-structure benchmark (Figure 5), and the §7.2 penetration tests. The
// isolation machinery — call gates, PAN toggles, traps, page faults — runs
// natively on the emulator; bulk application work charges calibrated cycle
// costs (see DESIGN.md).
package workload

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/baseline"
	"lightzone/internal/core"
	"lightzone/internal/cpu"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/trace"
)

// Variant selects the isolation mechanism under evaluation.
type Variant string

// Evaluated variants (the five curves of Figures 3-5).
const (
	VariantNone       Variant = "original"
	VariantLZPAN      Variant = "lightzone-pan"
	VariantLZTTBR     Variant = "lightzone-ttbr"
	VariantWatchpoint Variant = "watchpoint"
	VariantLwC        Variant = "lwc"
)

// The alternate backends' domain switches (the backend comparison matrix):
// an untrapped POR_EL1 write under overlay, a realm-enter trap under granule.
const (
	VariantOverlay Variant = "overlay"
	VariantGranule Variant = "granule"
)

// Variants lists all evaluated variants in the paper's presentation order.
func Variants() []Variant {
	return []Variant{VariantNone, VariantLZPAN, VariantLZTTBR, VariantWatchpoint, VariantLwC}
}

// BackendVariant returns the variant that measures a backend's domain
// switch: the scalable TTBR gate for lightzone, the backend's own switch
// otherwise.
func BackendVariant(backend string) Variant {
	if backend == "lightzone" {
		return VariantLZTTBR
	}
	return Variant(backend)
}

// backend names the isolation backend a variant's machine boots with.
func (v Variant) backend() string {
	if v == VariantOverlay || v == VariantGranule {
		return string(v)
	}
	return "lightzone"
}

// Platform selects a cost profile and host/guest placement — the four
// platform columns of the paper's figures (Carmel Host/Guest, Cortex
// Host/Guest).
type Platform struct {
	Prof  *arm64.Profile
	Guest bool
}

func (p Platform) String() string {
	pos := "Host"
	if p.Guest {
		pos = "Guest"
	}
	return p.Prof.Name + " " + pos
}

// AllPlatforms returns the four evaluation platforms.
func AllPlatforms() []Platform {
	return []Platform{
		{arm64.ProfileCarmel(), false},
		{arm64.ProfileCarmel(), true},
		{arm64.ProfileCortexA55(), false},
		{arm64.ProfileCortexA55(), true},
	}
}

// Marker module syscall numbers (measurement probes).
const (
	SysMarkBegin = 480
	SysMarkEnd   = 481
)

// markerUnset is the sentinel for a mark that was never placed. Cycle
// counts are non-negative, so it can never collide with a real mark.
const markerUnset int64 = -1

// Marker records vCPU cycle counts at program-selected points. Marks carry
// the unset sentinel until the program places them; Env.NewProcess resets
// the marker so one run can never read the previous run's interval.
type Marker struct {
	c     *cpu.VCPU
	Begin int64
	End   int64
}

// Reset clears both marks to the unset sentinel.
func (m *Marker) Reset() { m.Begin, m.End = markerUnset, markerUnset }

var _ kernel.Module = (*Marker)(nil)

// HandleExit implements kernel.Module.
func (m *Marker) HandleExit(k *kernel.Kernel, t *kernel.Thread, exit cpu.Exit) (bool, error) {
	return false, nil
}

// Syscall implements kernel.Module.
func (m *Marker) Syscall(k *kernel.Kernel, t *kernel.Thread, num int, args [6]uint64) (uint64, bool, error) {
	switch num {
	case SysMarkBegin:
		m.Begin = m.c.Cycles
		return 0, true, nil
	case SysMarkEnd:
		m.End = m.c.Cycles
		return 0, true, nil
	}
	return 0, false, nil
}

// Env is a booted evaluation environment: a machine with the LightZone
// module, both baselines, and the measurement marker installed on the
// process-owning kernel (the host kernel, or a guest VM's kernel).
type Env struct {
	Platform Platform
	M        *hyp.Machine
	K        *kernel.Kernel
	VM       *hyp.VM
	LZ       *core.LightZone
	WP       *baseline.Watchpoint
	LWC      *baseline.LwC
	Marks    *Marker
}

// EnableTrace attaches an event recorder to the LightZone module and
// returns it.
func (e *Env) EnableTrace(capacity int) *trace.Recorder {
	rec := trace.NewRecorder(capacity)
	e.LZ.Trace = rec
	return rec
}

// NewEnv boots an environment for the platform.
func NewEnv(p Platform) (*Env, error) {
	m := hyp.NewMachine(p.Prof, 4<<30)
	e := &Env{
		Platform: p,
		M:        m,
		LZ:       core.New(m.Hyp),
		WP:       baseline.NewWatchpoint(),
		LWC:      baseline.NewLwC(),
		Marks:    &Marker{c: m.CPU, Begin: markerUnset, End: markerUnset},
	}
	if p.Guest {
		vm, err := m.NewGuestVM("guest")
		if err != nil {
			return nil, err
		}
		e.VM = vm
		e.K = vm.Kernel
		core.InstallLowvisor(m.Hyp, e.LZ)
	} else {
		e.K = m.Host
	}
	e.K.Module = kernel.ModuleMux{e.LZ, e.WP, e.LWC, e.Marks}
	return e, nil
}

// NewEnvBackend boots an environment whose LightZone module uses the named
// isolation backend. The default backend is "lightzone"; passing it here is
// equivalent to NewEnv.
func NewEnvBackend(p Platform, backend string) (*Env, error) {
	e, err := NewEnv(p)
	if err != nil {
		return nil, err
	}
	if err := e.LZ.SetBackend(backend); err != nil {
		return nil, err
	}
	return e, nil
}

// NewProcess assembles a program and creates a process, registering any
// gate entries (resolved relative to the text base).
func (e *Env) NewProcess(name string, a *arm64.Asm, data []byte, entries []core.GateEntry, extra ...kernel.VMA) (*kernel.Process, error) {
	words, err := a.Assemble()
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", name, err)
	}
	p, err := e.K.CreateProcess(name, kernel.Program{Text: words, Data: data, Extra: extra})
	if err != nil {
		return nil, err
	}
	// Fresh process, fresh measurement window: without this reset an
	// aborted run would silently report the previous run's interval.
	// (The reset lives here, not in Run — the chaos engine legitimately
	// drives one process through many Run slices and reads Measured after.)
	e.Marks.Reset()
	resolved := make([]core.GateEntry, len(entries))
	for i, ge := range entries {
		resolved[i] = core.GateEntry{GateID: ge.GateID, Entry: uint64(kernel.TextBase) + ge.Entry}
	}
	e.LZ.RegisterGateEntries(p, resolved)
	return p, nil
}

// Run executes a process to completion.
func (e *Env) Run(p *kernel.Process, maxTraps int64) error {
	if e.Platform.Guest {
		return e.M.RunGuestProcess(e.VM, p, maxTraps)
	}
	return e.M.RunHostProcess(p, maxTraps)
}

// run executes a process to completion and fails if it was killed.
func (e *Env) run(p *kernel.Process, maxTraps int64) error {
	if err := e.Run(p, maxTraps); err != nil {
		return err
	}
	if p.Killed {
		return fmt.Errorf("%s killed: %s", p.Name, p.KillMsg)
	}
	return nil
}

// measure runs a process to completion and returns its marker window
// divided by the ops the window brackets.
func (e *Env) measure(p *kernel.Process, maxTraps int64, ops int) (float64, error) {
	if err := e.run(p, maxTraps); err != nil {
		return 0, err
	}
	m, err := e.Measured()
	if err != nil {
		return 0, err
	}
	return float64(m) / float64(ops), nil
}

// Measured returns the cycles between the program's begin/end markers. A
// run that placed no markers at all reads 0 (the documented System.Run
// contract); a run that aborted between SysMarkBegin and SysMarkEnd — or
// whose end mark predates its begin, i.e. a stale mark surviving from an
// earlier run — is an error rather than a silently wrong interval.
func (e *Env) Measured() (int64, error) {
	b, n := e.Marks.Begin, e.Marks.End
	switch {
	case b == markerUnset && n == markerUnset:
		return 0, nil
	case b == markerUnset:
		return 0, fmt.Errorf("measurement: SysMarkEnd at cycle %d without SysMarkBegin", n)
	case n == markerUnset:
		return 0, fmt.Errorf("measurement aborted: SysMarkBegin at cycle %d never closed by SysMarkEnd", b)
	case n < b:
		return 0, fmt.Errorf("stale measurement: end mark (cycle %d) predates begin mark (cycle %d)", n, b)
	}
	return n - b, nil
}
