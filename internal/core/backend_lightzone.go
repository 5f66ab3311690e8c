package core

import (
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
)

// lightzoneBackend is the paper's substrate: per-domain stage-1 page
// tables selected by TTBR0 writes inside TTBR1-mapped secure call gates
// (GateTab/TTBRTab two-phase validation), with PAN-based domains as the
// single-table fast path. Alloc, Free and Prot live in lzproc.go, MapGatePgt
// in gate.go beside the gate state it writes, fault handling in fault.go.
type lightzoneBackend struct{}

func (lightzoneBackend) Name() string { return "lightzone" }

func (lightzoneBackend) Install(lp *LZProc) error { return lp.installGates() }

func (lightzoneBackend) HandleFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error {
	return lp.lz.handleLZFault(k, t, lp, s)
}

func (lightzoneBackend) HandleHVC(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) (bool, error) {
	return false, nil
}
