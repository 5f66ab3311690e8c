package core

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/trace"
)

// HVCGranuleEnter is the granule backend's domain-entry hypervisor call:
// realm-style, the zone id travels in x0 and the module installs the zone's
// translation regime on the application's behalf. There is no call gate —
// the trap boundary itself is the gate.
const HVCGranuleEnter = 0x4C04

// granuleState is the granule backend's per-process delegation tracking.
// It is backend-private: tools/lint confines every access to this file.
type granuleState struct {
	// owner maps a delegated real frame to the zone it is assigned to —
	// the granule state table an RMM would keep. A frame is delegated
	// exactly while it has an owner.
	owner map[mem.PA]int
}

// granuleBackend is a NanoZone/CCA-style substrate: each zone is a realm
// with its own stage-1 table, zone memory transitions through explicit
// delegation states (undelegated -> delegated -> assigned-to-zone) one
// granule at a time, and domain entry is a trap into the module
// (HVCGranuleEnter) that installs the zone's table — the most expensive
// switch of the three backends, paying a full trap round trip plus a
// realm-entry dispatch. Cross-zone access is classified against the
// granule ownership table before any stage-1 repair is considered, so a
// foreign access is a granule protection fault even where plain demand
// paging would otherwise have patched the translation.
type granuleBackend struct{}

func (granuleBackend) Name() string { return "granule" }

func (granuleBackend) Install(lp *LZProc) error {
	lp.gran = &granuleState{owner: make(map[mem.PA]int)}
	return nil
}

// Alloc implements lz_alloc as realm creation: a fresh stage-1 table
// populated like a lightzone domain table, plus a realm-descriptor setup
// charge at hypervisor-dispatch cost. No TTBRTab entry exists — only the
// module (the RMM stand-in) ever installs a zone's TTBR.
func (granuleBackend) Alloc(lp *LZProc) (int, error) {
	d, err := lp.newPGT()
	if err != nil {
		return -1, err
	}
	if err := lp.populatePGT(d); err != nil {
		return -1, err
	}
	lp.kern.CPU.Charge(lp.kern.Prof.HypDispatchCost) // realm-descriptor creation
	lp.lz.observe("lz_alloc", lp)
	return d.ID, nil
}

// Free implements lz_free: destroy a zone, undelegating its granules back
// to the shared pool.
func (granuleBackend) Free(lp *LZProc, zone int) error {
	d, ok := lp.pgts[zone]
	if !ok || zone == 0 {
		return fmt.Errorf("lz_free: bad zone %d", zone)
	}
	if cur, ok := lp.currentPGT(); ok && cur == d {
		return fmt.Errorf("lz_free: zone %d is active", zone)
	}
	st := lp.gran
	for pa, z := range st.owner {
		if z != zone {
			continue
		}
		delete(st.owner, pa)
	}
	for va, info := range lp.protected {
		delete(info.pgts, zone)
		if len(info.pgts) == 0 {
			delete(lp.protected, va)
		}
	}
	delete(lp.byRoot, d.S1.Root())
	delete(lp.pgts, zone)
	// Mirror the lightzone teardown: the ASID goes back to the kernel
	// allocator (scoped shootdown included) and the zone id to the free
	// list, so realm churn can't exhaust either space.
	lp.kern.FreeASID(lp.vm.VMID, d.S1.ASID())
	lp.freePGT = append(lp.freePGT, zone)
	d.S1.Free()
	lp.lz.observe("lz_free", lp)
	return nil
}

// Prot implements lz_prot as granule delegation: each frame of the region
// is delegated out of the shared pool and assigned to the zone, then mapped
// only in the zone's table. Delegation and assignment are separate
// RMM-style operations, so the cost model charges two trap round trips per
// granule — the most expensive lz_prot of the three backends.
func (granuleBackend) Prot(lp *LZProc, addr mem.VA, length uint64, zone, perm int) error {
	st := lp.gran
	if uint64(addr)&mem.PageMask != 0 {
		return fmt.Errorf("lz_prot: unaligned address %v", addr)
	}
	if length == 0 || mem.IsTTBR1(addr) {
		return fmt.Errorf("lz_prot: bad region")
	}
	d, ok := lp.pgts[zone]
	if !ok || zone == 0 {
		return fmt.Errorf("lz_prot: no zone %d", zone)
	}
	if perm&PermUser != 0 {
		// Zone memory is owned by exactly one realm; the
		// mapped-everywhere PAN-domain shape contradicts delegation.
		return fmt.Errorf("lz_prot: granule zones cannot hold PAN (PermUser) domains")
	}
	end := addr + mem.VA(mem.PageAlignUp(length))
	for va := addr; va < end; {
		pa, kdesc, size, err := lp.kernelFrame(va)
		if err != nil {
			return err
		}
		base := va
		if size == mem.HugePageSize {
			base = mem.VA(uint64(va) &^ uint64(mem.HugePageMask))
		}
		if owner, owned := st.owner[pa]; owned && owner != zone {
			return fmt.Errorf("lz_prot: granule %v already assigned to zone %d", pa, owner)
		}
		st.owner[pa] = zone
		attrs := overlayAttrs(kdesc, perm) | mem.AttrNG
		lp.unmapEverywhere(base)
		lp.traceCodeInval(base, "lz_prot granule delegate+assign")
		if err := lp.mapIntoPGT(d, base, pa, size, attrs); err != nil {
			return err
		}
		lp.protected[base] = &protInfo{pgts: map[int]int{zone: perm}, perm: perm}
		// Delegate + assign: two RMI-style round trips per granule.
		lp.kern.CPU.Charge(2 * lp.kern.Prof.HypDispatchCost)
		va = base + mem.VA(size)
	}
	lp.lz.observe("lz_prot", lp)
	return nil
}

func (granuleBackend) MapGatePgt(lp *LZProc, pgt, gate int) error {
	return fmt.Errorf("lz_map_gate_pgt: the granule backend has no call gates")
}

// HandleFault consults the granule ownership table before the
// substrate-invariant fault path: an access whose backing frame is assigned
// to a zone other than the current one is a granule protection fault, full
// stop — demand paging never repairs it.
func (granuleBackend) HandleFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error {
	st := lp.gran
	if mem.ValidVA(s.VA) && !mem.IsTTBR1(s.VA) {
		// Observation-only resolve of the backing frame: no demand
		// mapping, no charges — undelegated or unmapped pages fall
		// through to the shared path untouched.
		if res, err := lp.proc.AS.S1.Walk(s.VA); err == nil && res.Found {
			pa := res.PA &^ mem.PA(mem.PageMask)
			if res.BlockShift == mem.HugePageShift {
				pa = res.PA &^ mem.PA(mem.HugePageMask)
			}
			if owner, owned := st.owner[pa]; owned {
				cur, haveCur := lp.currentPGT()
				if !haveCur || cur.ID != owner {
					lp.chargeModuleEntry(k)
					k.PageFaults++
					lp.lz.Trace.Record(k.CPU.Cycles, trace.KindPageFault, t.Proc.PID, "%v %v at %v", s.Kind, s.Access, s.VA)
					from := -1
					if haveCur {
						from = cur.ID
					}
					lp.violation(t, fmt.Sprintf("granule protection fault: %v of granule %v assigned to zone %d, accessed from zone %d", s.Access, pa, owner, from))
					return nil
				}
			}
		}
	}
	return lp.lz.handleLZFault(k, t, lp, s)
}

// HandleHVC services HVCGranuleEnter: the realm-style domain switch. The
// zone id arrives in x0; the module validates it and installs the zone's
// stage-1 table, charging a realm-entry dispatch on top of the trap round
// trip.
func (granuleBackend) HandleHVC(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) (bool, error) {
	if s.Imm != HVCGranuleEnter {
		return false, nil
	}
	lp.chargeModuleEntry(k)
	c := k.CPU
	zone := int(int64(c.R(0)))
	d, ok := lp.pgts[zone]
	if !ok {
		lp.violation(t, fmt.Sprintf("granule enter: no zone %d", zone))
		return true, nil
	}
	old := c.Sys(arm64.TTBR0EL1)
	c.SetSys(arm64.TTBR0EL1, d.TTBR())
	t.Ctx.TTBR0 = d.TTBR()
	// SetSys bypasses the emulated-MSR path, so record the switch directly.
	lp.lz.Trace.Record(c.Cycles, trace.KindDomainSwitch, t.Proc.PID, "ttbr0 %#x -> %#x (granule enter zone %d)", old, d.TTBR(), zone)
	c.Charge(k.Prof.HypDispatchCost) // realm entry
	lp.chargeModuleExit(k)
	return true, c.ERET()
}

// EmitGranuleEnter expands the granule backend's domain-switch primitive
// into an application program: zone id in x0, then the realm-entry trap.
func EmitGranuleEnter(a *arm64.Asm) {
	a.Emit(arm64.HVC(HVCGranuleEnter))
}

// GranuleOwners returns a copy of the real-frame -> owning-zone table (nil
// for other backends). The granule-state audit cross-checks it against the
// mappings actually installed in each zone's table.
func (lp *LZProc) GranuleOwners() map[mem.PA]int {
	if lp.gran == nil {
		return nil
	}
	out := make(map[mem.PA]int, len(lp.gran.owner))
	for pa, zone := range lp.gran.owner {
		out[pa] = zone
	}
	return out
}

// cloneGranuleState deep-copies the granule backend's delegation tracking
// into a forked process clone (no-op for processes on other backends).
// Confined to this file by tools/lint.
func (lp *LZProc) cloneGranuleState(lp2 *LZProc) {
	if lp.gran == nil {
		return
	}
	st2 := &granuleState{owner: make(map[mem.PA]int, len(lp.gran.owner))}
	for pa, zone := range lp.gran.owner {
		st2.owner[pa] = zone
	}
	lp2.gran = st2
}
