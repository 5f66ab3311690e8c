package workload

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// EmulatedTxnConfig describes a fully-emulated transaction worker: instead
// of composing measured primitives analytically (AppParams), the worker
// program executes every transaction on the emulator — PAN toggles around
// heap touches, gate switches into the stack domain, kernel crossings, and
// the bulk work charged through a nanosleep-modelled compute kernel. It
// validates the analytic request model against end-to-end emulation.
type EmulatedTxnConfig struct {
	Platform   Platform
	Variant    Variant // VariantNone, VariantLZPAN or VariantLZTTBR
	Txns       int
	WorkCycles int64 // bulk compute per transaction
	PanPairs   int   // HP_PTRS-style protected touches per transaction
	GatePairs  int   // stack-domain gate passes per transaction (TTBR, max 2)
	Syscalls   int   // kernel crossings per transaction
}

// RunEmulatedTxnWorker executes the worker and returns average cycles per
// transaction.
func RunEmulatedTxnWorker(cfg EmulatedTxnConfig) (float64, error) {
	if cfg.Txns <= 0 {
		return 0, fmt.Errorf("bad txn count")
	}
	if cfg.GatePairs > 2 {
		return 0, fmt.Errorf("the worker models at most 2 gate passes per transaction")
	}
	env, err := NewEnv(cfg.Platform)
	if err != nil {
		return 0, err
	}
	const (
		heap  = uint64(0x7000_0000)
		stack = uint64(0x7100_0000)
	)
	lz := cfg.Variant == VariantLZPAN || cfg.Variant == VariantLZTTBR
	ttbr := cfg.Variant == VariantLZTTBR

	a := arm64.NewAsm()
	call := func(num uint64, args ...uint64) {
		for i, arg := range args {
			a.MovImm(uint8(i), arg)
		}
		a.MovImm(8, num)
		if lz {
			a.Emit(arm64.HVC(core.HVCSyscall))
		} else {
			a.Emit(arm64.SVC(0))
		}
	}

	// Setup.
	switch cfg.Variant {
	case VariantLZPAN:
		svcCall(a, core.SysLZEnter, 0, uint64(core.SanPAN))
	case VariantLZTTBR:
		svcCall(a, core.SysLZEnter, 1, uint64(core.SanTTBR))
	case VariantNone:
	default:
		return 0, fmt.Errorf("variant %q not supported by the emulated worker", cfg.Variant)
	}
	call(kernel.SysMmap, heap, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite))
	call(kernel.SysMmap, stack, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite))
	if lz {
		call(core.SysLZProt, heap, mem.PageSize, 0, core.PermRead|core.PermWrite|core.PermUser)
	}
	if ttbr {
		call(core.SysLZAlloc) // table 1: the stack domain
		call(core.SysLZMapGatePgt, 1, 0)
		call(core.SysLZMapGatePgt, 1, 1)
		call(core.SysLZProt, stack, mem.PageSize, 1, core.PermRead|core.PermWrite)
	}
	// Warm the heap page (and its PAN path) outside the measured loop.
	a.MovImm(5, heap)
	if lz {
		core.EmitSetPAN(a, 0)
		a.Emit(arm64.LDRImm(9, 5, 0, 3))
		core.EmitSetPAN(a, 1)
	} else {
		a.Emit(arm64.LDRImm(9, 5, 0, 3))
	}

	// Measured transaction loop. Gate call sites are fixed inside the
	// loop (one gate per site, §6.2), so they warm on the first
	// iteration and steady-state dominates over cfg.Txns iterations.
	call(SysMarkBegin)
	var entries []core.GateEntry
	a.MovImm(11, uint64(cfg.Txns))
	a.Label("txn")
	for i := 0; i < cfg.Syscalls; i++ {
		call(kernel.SysGetpid)
	}
	call(kernel.SysNanosleep, uint64(cfg.WorkCycles))
	if ttbr && cfg.GatePairs >= 1 {
		entry := core.EmitGateSwitch(a, 0, "site_a")
		off, err := a.Offset(entry)
		if err != nil {
			return 0, err
		}
		entries = append(entries, core.GateEntry{GateID: 0, Entry: uint64(off)})
		a.MovImm(13, stack)
		a.Emit(arm64.LDRImm(9, 13, 0, 3))
	}
	if ttbr && cfg.GatePairs >= 2 {
		entry := core.EmitGateSwitch(a, 1, "site_b")
		off, err := a.Offset(entry)
		if err != nil {
			return 0, err
		}
		entries = append(entries, core.GateEntry{GateID: 1, Entry: uint64(off)})
		a.MovImm(13, stack)
		a.Emit(arm64.LDRImm(9, 13, 0, 3))
	}
	a.MovImm(5, heap)
	if lz {
		for i := 0; i < cfg.PanPairs; i++ {
			core.EmitSetPAN(a, 0)
			a.Emit(arm64.LDRImm(9, 5, 0, 3))
			core.EmitSetPAN(a, 1)
		}
	} else {
		for i := 0; i < cfg.PanPairs; i++ {
			a.Emit(arm64.LDRImm(9, 5, 0, 3))
		}
	}
	a.Emit(arm64.SUBSImm(11, 11, 1))
	a.BCond(arm64.CondNE, "txn")
	call(SysMarkEnd)
	call(kernel.SysExit, 0)

	p, err := env.NewProcess("emulated-txn", a, nil, entries)
	if err != nil {
		return 0, err
	}
	budget := int64(cfg.Txns)*int64(cfg.Syscalls+cfg.GatePairs+6)*4 + 1_000_000
	return env.measure(p, budget, cfg.Txns)
}
