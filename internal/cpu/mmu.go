package cpu

import (
	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// Abort is a translation/permission failure produced by a memory access.
type Abort struct {
	Syndrome
}

func (a *Abort) Error() string {
	return "abort: stage-" + a.Syndrome.Kind.String() + " " + a.Syndrome.Access.String()
}

func (c *VCPU) abort(va mem.VA, ipa mem.IPA, acc mem.AccessType, kind mem.FaultKind, stage int) *Abort {
	class := ECDataAbortSame
	if acc == mem.AccessExec {
		class = ECInsAbortSame
	}
	return &Abort{Syndrome{
		Class:  class,
		VA:     va,
		IPA:    ipa,
		Access: acc,
		Kind:   kind,
		Stage:  stage,
		PC:     c.PC,
	}}
}

// s2Resolve translates an IPA through stage-2 (identity when stage-2 is
// disabled). charged selects whether walk cycles are accounted; descriptor
// fetches during a stage-1 walk model the hardware walk cache and are not
// charged.
func (c *VCPU) s2Resolve(ipa mem.IPA, acc mem.AccessType, charged bool) (mem.PA, uint64, *Abort) {
	if !c.stage2Enabled() {
		return mem.PA(ipa), 0, nil
	}
	root := mem.PA(VTTBRRoot(c.sys[arm64.VTTBREL2]))
	s2 := mem.ViewStage2(c.Mem, root)
	res, err := s2.Walk(ipa)
	if err != nil {
		return 0, 0, c.abort(0, ipa, acc, mem.FaultAddressSize, 2)
	}
	if charged {
		c.Charge(int64(res.Levels) * c.Prof.TLBWalkPerLevel)
	}
	if !res.Found {
		return 0, 0, c.abort(0, ipa, acc, mem.FaultTranslation, 2)
	}
	if kind := mem.CheckStage2(res.Desc, acc); kind != mem.FaultNone {
		return 0, 0, c.abort(0, ipa, acc, kind, 2)
	}
	return res.PA, res.Desc, nil
}

// Translate resolves va for the given access under the current execution
// context: TTBR selection, ASID/VMID-tagged TLB, 4-level stage-1 walk with
// stage-2-translated descriptor fetches, permission checks (including PAN
// and the LDTR/STTR unprivileged override), and combined TLB fill.
func (c *VCPU) Translate(va mem.VA, acc mem.AccessType, unpriv bool) (mem.PA, *Abort) {
	// Host-side micro-TLB fastpath (microtlb.go): hits only when the gates
	// prove the slow path below would hit the TLB with the same entry, pass
	// the same permission checks, and charge nothing. Hit counters are
	// mirrored inside microLookup, so taking this return is invisible to
	// cycles, stats, TLB contents and fault behaviour.
	if pa, ok := c.microLookup(va, acc, unpriv); ok {
		return pa, nil
	}
	if !mem.ValidVA(va) {
		return 0, c.abort(va, 0, acc, mem.FaultAddressSize, 1)
	}
	privileged := c.EL() != arm64.EL0
	pan := c.PAN()

	if c.sys[arm64.SCTLREL1]&SCTLRM == 0 {
		// Stage-1 MMU off: flat mapping, stage-2 still applies.
		pa, _, ab := c.s2Resolve(mem.IPA(va), acc, true)
		if ab != nil {
			ab.Syndrome.VA = va
			return 0, ab
		}
		return pa, nil
	}

	ttbr := c.sys[arm64.TTBR0EL1]
	if mem.IsTTBR1(va) {
		ttbr = c.sys[arm64.TTBR1EL1]
	}
	asid := TTBRASID(ttbr)
	vmid := c.CurrentVMID()

	if e, ok := c.TLB.Lookup(vmid, asid, va); ok {
		if kind := mem.CheckStage1(e.S1Desc, acc, privileged, pan, unpriv); kind != mem.FaultNone {
			return 0, c.abort(va, 0, acc, kind, 1)
		}
		if !c.overlayPermits(e.S1Desc) {
			return 0, c.abort(va, 0, acc, mem.FaultOverlay, 1)
		}
		if e.HasS2 {
			if kind := mem.CheckStage2(e.S2Desc, acc); kind != mem.FaultNone {
				return 0, c.abort(va, 0, acc, kind, 2)
			}
		}
		mask := uint64(1)<<e.BlockShift - 1
		pa := e.PABase + mem.PA(uint64(va)&mask)
		if mem.OverlayKey(e.S1Desc) == 0 {
			c.microFill(va, acc, unpriv, pa)
		}
		return pa, nil
	}

	// Stage-1 walk. Table descriptors live in IPA space when stage-2 is
	// enabled: each fetch resolves through stage-2 (uncharged; modelled
	// walk cache).
	tableIPA := mem.IPA(TTBRRoot(ttbr))
	var leaf uint64
	var leafIPA mem.IPA
	blockShift := uint(mem.PageShift)
	levels := 0
	for level := 0; level <= 3; level++ {
		levels++
		idx := mem.TableIndex(uint64(va), level)
		descPA, _, ab := c.s2Resolve(tableIPA+mem.IPA(idx*8), mem.AccessRead, false)
		if ab != nil {
			ab.Syndrome.VA = va
			c.Charge(int64(levels) * c.Prof.TLBWalkPerLevel)
			return 0, ab
		}
		desc, err := c.Mem.ReadU64(descPA)
		if err != nil {
			c.Charge(int64(levels) * c.Prof.TLBWalkPerLevel)
			return 0, c.abort(va, 0, acc, mem.FaultAddressSize, 1)
		}
		if desc&mem.DescValid == 0 {
			c.Charge(int64(levels) * c.Prof.TLBWalkPerLevel)
			return 0, c.abort(va, 0, acc, mem.FaultTranslation, 1)
		}
		if level == 3 {
			if desc&mem.DescTable == 0 {
				c.Charge(int64(levels) * c.Prof.TLBWalkPerLevel)
				return 0, c.abort(va, 0, acc, mem.FaultTranslation, 1)
			}
			leaf = desc
			leafIPA = mem.IPA(desc&mem.OAMask | uint64(va)&mem.PageMask)
			break
		}
		if desc&mem.DescTable == 0 {
			if level != 2 {
				c.Charge(int64(levels) * c.Prof.TLBWalkPerLevel)
				return 0, c.abort(va, 0, acc, mem.FaultTranslation, 1)
			}
			leaf = desc
			blockShift = mem.HugePageShift
			leafIPA = mem.IPA(desc&mem.OAMask&^uint64(mem.HugePageMask) | uint64(va)&mem.HugePageMask)
			break
		}
		tableIPA = mem.IPA(desc & mem.OAMask)
	}
	c.Charge(int64(levels) * c.Prof.TLBWalkPerLevel)

	if kind := mem.CheckStage1(leaf, acc, privileged, pan, unpriv); kind != mem.FaultNone {
		return 0, c.abort(va, 0, acc, kind, 1)
	}
	if !c.overlayPermits(leaf) {
		return 0, c.abort(va, 0, acc, mem.FaultOverlay, 1)
	}

	pa, s2desc, ab := c.s2Resolve(leafIPA, acc, true)
	if ab != nil {
		ab.Syndrome.VA = va
		return 0, ab
	}

	mask := uint64(1)<<blockShift - 1
	c.TLB.Insert(vmid, asid, va, mem.TLBEntry{
		PABase:     pa - mem.PA(uint64(va)&mask),
		S1Desc:     leaf,
		S2Desc:     s2desc,
		BlockShift: blockShift,
		HasS2:      c.stage2Enabled(),
	})
	// Fill after the Insert: the micro entry's generation snapshot must
	// cover the state in which the TLB provably holds this translation.
	// Overlay-keyed pages stay out of the micro-TLB: a POR_EL1 write is not
	// a micro-TLB invalidation point, so keyed translations must re-check
	// the active key on every access.
	if mem.OverlayKey(leaf) == 0 {
		c.microFill(va, acc, unpriv, pa)
	}
	return pa, nil
}

// overlayPermits implements the FEAT_S1POE-style permission-overlay check:
// a descriptor carrying a nonzero overlay key is accessible only while
// POR_EL1's low byte holds that key. Unkeyed descriptors (the entire
// pre-overlay world) always pass.
func (c *VCPU) overlayPermits(desc uint64) bool {
	key := mem.OverlayKey(desc)
	return key == 0 || key == int(c.sys[arm64.POREL1]&mem.OverlayKeyMax)
}

// MemRead performs a cycle-charged data load of size bytes (1, 2, 4, 8).
func (c *VCPU) MemRead(va mem.VA, size int, unpriv bool) (uint64, *Abort) {
	pa, ab := c.Translate(va, mem.AccessRead, unpriv)
	if ab != nil {
		return 0, ab
	}
	c.Charge(c.Prof.MemAccessCost)
	var v uint64
	if uint64(pa)&mem.PageMask+uint64(size) <= mem.PageSize {
		var err error
		if v, err = c.Mem.ReadUint(pa, size); err != nil {
			return 0, c.abort(va, 0, mem.AccessRead, mem.FaultAddressSize, 1)
		}
	} else {
		var buf [8]byte
		if err := c.Mem.Read(pa, buf[:size]); err != nil {
			return 0, c.abort(va, 0, mem.AccessRead, mem.FaultAddressSize, 1)
		}
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(buf[i])
		}
	}
	if c.audit != nil {
		c.audit.noteAccess(false, va, size)
	}
	return v, nil
}

// MemWrite performs a cycle-charged data store.
func (c *VCPU) MemWrite(va mem.VA, size int, v uint64, unpriv bool) *Abort {
	pa, ab := c.Translate(va, mem.AccessWrite, unpriv)
	if ab != nil {
		return ab
	}
	c.Charge(c.Prof.MemAccessCost)
	if uint64(pa)&mem.PageMask+uint64(size) <= mem.PageSize {
		if err := c.Mem.WriteUint(pa, size, v); err != nil {
			return c.abort(va, 0, mem.AccessWrite, mem.FaultAddressSize, 1)
		}
	} else {
		var buf [8]byte
		for i := 0; i < size; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		if err := c.Mem.Write(pa, buf[:size]); err != nil {
			return c.abort(va, 0, mem.AccessWrite, mem.FaultAddressSize, 1)
		}
	}
	if c.audit != nil {
		c.audit.noteAccess(true, va, size)
	}
	c.noteCodeWrite(va, size)
	return nil
}

// FetchInsn fetches the instruction word at va with execute permission.
func (c *VCPU) FetchInsn(va mem.VA) (uint32, *Abort) {
	pa, ab := c.Translate(va, mem.AccessExec, false)
	if ab != nil {
		return 0, ab
	}
	w, err := c.Mem.ReadU32(pa)
	if err != nil {
		return 0, c.abort(va, 0, mem.AccessExec, mem.FaultAddressSize, 1)
	}
	return w, nil
}
