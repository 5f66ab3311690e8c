package core

import (
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// lightzoneBackend is the paper's substrate: per-domain stage-1 page
// tables selected by TTBR0 writes inside TTBR1-mapped secure call gates
// (GateTab/TTBRTab two-phase validation), with PAN-based domains as the
// single-table fast path. The implementation lives on LZProc (lzproc.go,
// gate.go, fault.go) exactly as before the Backend split; this type is the
// thin dispatch shim that makes the default substrate swappable.
type lightzoneBackend struct{}

func (lightzoneBackend) Name() string { return "lightzone" }

func (lightzoneBackend) Install(lp *LZProc) error { return lp.installGates() }

func (lightzoneBackend) Alloc(lp *LZProc) (int, error) { return lp.Alloc() }

func (lightzoneBackend) Free(lp *LZProc, domain int) error { return lp.Free(domain) }

func (lightzoneBackend) Prot(lp *LZProc, addr mem.VA, length uint64, domain, perm int) error {
	return lp.Prot(addr, length, domain, perm)
}

func (lightzoneBackend) MapGatePgt(lp *LZProc, pgt, gate int) error {
	return lp.MapGatePgt(pgt, gate)
}

func (lightzoneBackend) HandleFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error {
	return lp.lz.handleLZFault(k, t, lp, s)
}

func (lightzoneBackend) HandleHVC(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) (bool, error) {
	return false, nil
}
