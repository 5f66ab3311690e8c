package core

import (
	"sort"

	"lightzone/internal/mem"
)

// Introspection accessors for the static verifier (internal/verify) and
// inspection tooling. Everything here is observation-only: no cycle charges,
// no TLB probes, no demand mapping — reading a machine through this API
// leaves its measured state bit-identical.

// GateTabBase returns the TTBR1 VA of GateTab[0].
func GateTabBase() uint64 { return uint64(gateTabVA) }

// TTBRTabBase returns the TTBR1 VA of TTBRTab[0].
func TTBRTabBase() uint64 { return uint64(ttbrTabVA) }

// Procs returns every live LightZone process, sorted by PID so audits are
// deterministic.
func (lz *LightZone) Procs() []*LZProc {
	out := make([]*LZProc, 0, len(lz.procs))
	for _, lp := range lz.procs {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].proc.PID < out[j].proc.PID })
	return out
}

// PID returns the process identifier.
func (lp *LZProc) PID() int { return lp.proc.PID }

// Name returns the process name.
func (lp *LZProc) Name() string { return lp.proc.Name }

// AllowScalable reports whether lz_enter enabled TTBR-based isolation.
func (lp *LZProc) AllowScalable() bool { return lp.allowScalable }

// PageTableIDs returns the live domain page-table ids in ascending order.
func (lp *LZProc) PageTableIDs() []int {
	ids := make([]int, 0, len(lp.pgts))
	for id := range lp.pgts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TTBR1Table returns the process's TTBR1 stage-1 table (stub, gates,
// GateTab, TTBRTab).
func (lp *LZProc) TTBR1Table() *mem.Stage1 { return lp.ttbr1 }

// TTBR1Val returns the TTBR1_EL1 value installed for the process.
func (lp *LZProc) TTBR1Val() uint64 { return lp.ttbr1Val }

// Fake returns the fake-physical translation layer.
func (lp *LZProc) Fake() *FakePhys { return lp.fake }

// GateInfo describes one registered call gate.
type GateInfo struct {
	ID    int
	Entry uint64 // legitimate return address (GateTab ENTRY)
	PGTID int    // page table the gate switches to
}

// ExecCleanPages returns the page bases currently in the sanitized-
// executable state, ascending. These are exactly the pages the runtime
// proved free of Table 3 instructions; the verifier re-proves the claim.
func (lp *LZProc) ExecCleanPages() []mem.VA {
	var out []mem.VA
	for va, st := range lp.exec {
		if st == execClean {
			out = append(out, va)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
