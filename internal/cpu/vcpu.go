package cpu

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// VCPU is a simulated ARM64 hardware thread.
type VCPU struct {
	Prof *arm64.Profile
	Mem  *mem.PhysMem
	TLB  *mem.TLB

	// Stats aggregates TLB and decoded-block cache counters for the whole
	// fetch pipeline (shared with TLB and Decoded).
	Stats *mem.Stats

	// Decoded is the decoded-basic-block cache; cur is the active replay
	// cursor within a cached block.
	Decoded *BlockCache
	cur     blockCursor

	// mtlb holds the host-side translation fastpaths (see microtlb.go; all
	// access is confined to that file by tools/lint). batch accumulates
	// per-instruction cycles during a block-resident replay and is flushed
	// through Charge before any point where Cycles is observable.
	mtlb  microTLBs
	batch int64

	// tcache holds the stitched superblocks of the trace compiler (see
	// trace.go; all access is confined to that file by tools/lint). excSeq
	// counts synchronous exception deliveries — a host-side sequence the
	// trace runner compares to detect delivery exactly, even when the
	// vector happens to equal the predicted next PC.
	tcache traceCache
	excSeq uint64

	// audit, when non-nil, cross-checks cached-block replays against their
	// static BlockProof (see proofaudit.go; observation-only, confined to
	// that file by tools/lint).
	audit *proofAudit

	// Handler dispatch state for the instruction in flight: the committed
	// next PC (fall-through, branch target, or exception vector) and a Go
	// error escaping a handler.
	nextPC  uint64
	stepErr error

	// Architectural state.
	X      [32]uint64 // general-purpose; index 31 reads as zero
	PC     uint64
	PState uint64
	sys    [arm64.NumSysRegs]uint64 // system register file, indexed by arm64.SysReg

	// EmulatedEL1 selects whether exceptions targeting EL1 are delivered
	// to emulated code at VBAR_EL1 (LightZone process VMs, whose EL1
	// vector is the TTBR1-mapped trap stub) or exit the interpreter to a
	// functional Go kernel (ordinary guest VMs).
	EmulatedEL1 bool

	// Cycle and instruction accounting.
	Cycles int64
	Insns  int64

	// LastSyndrome describes the most recent exception taken, for
	// functional handlers (the architectural ESR/FAR registers are also
	// populated).
	LastSyndrome Syndrome

	// PendingIRQ requests an interrupt before the next instruction.
	PendingIRQ bool

	// OnTTBR0Write, when set, observes emulated TTBR0_EL1 writes — the
	// LightZone domain switches performed by call gates. Diagnostic
	// tracing only; it must not mutate state.
	OnTTBR0Write func(old, new uint64)
}

// New creates a vCPU at EL1 with interrupts masked and MMU off. The TLB,
// the code-generation epochs and the decoded-block cache share one Stats
// instance, and the TLB's invalidation entry points bump the epochs so the
// block cache observes every break-before-make and permission change.
func New(prof *arm64.Profile, pm *mem.PhysMem) *VCPU {
	stats := &mem.Stats{}
	epochs := mem.NewCodeEpochs(stats)
	tlb := mem.NewTLB(prof.TLBCapacity)
	tlb.Stats = stats
	tlb.Code = epochs
	return wire(prof, pm, stats, epochs, tlb)
}

// wire assembles a VCPU around a prepared stats/epochs/TLB triple and hooks
// up the cache-invalidation chokepoints. Fork passes a cloned TLB here so
// the child never builds a throwaway one.
func wire(prof *arm64.Profile, pm *mem.PhysMem, stats *mem.Stats, epochs *mem.CodeEpochs, tlb *mem.TLB) *VCPU {
	c := &VCPU{
		Prof:    prof,
		Mem:     pm,
		TLB:     tlb,
		Stats:   stats,
		Decoded: newBlockCache(epochs, stats),
		PState:  arm64.PStateForEL(arm64.EL1) | arm64.PStateI | arm64.PStateF,
		mtlb:    microTLBs{enabled: hostFastpathDefault.Load()},
		tcache:  newTraceCache(),
	}
	c.SetProofAudit(proofAuditDefault.Load())
	// Trace invalidation chokepoints: any code-epoch bump, block-cache
	// reset, or cohort eviction drops the traces it could dangle.
	epochs.OnBump = c.onCodeEpochBump
	c.Decoded.onReset = c.dropAllTraces
	c.Decoded.onEvict = c.dropTracesForBlock
	return c
}

// EL returns the current exception level.
func (c *VCPU) EL() arm64.EL { return arm64.ELFromPState(c.PState) }

// SetEL rewrites the PSTATE exception-level field.
func (c *VCPU) SetEL(el arm64.EL) {
	c.PState = c.PState&^arm64.PStateELMask | arm64.PStateForEL(el)&arm64.PStateELMask
	if el != arm64.EL0 {
		c.PState |= arm64.PStateSPSel
	} else {
		c.PState &^= arm64.PStateSPSel
	}
}

// PAN returns PSTATE.PAN.
func (c *VCPU) PAN() bool { return c.PState&arm64.PStatePAN != 0 }

// SetPAN writes PSTATE.PAN.
func (c *VCPU) SetPAN(v bool) {
	if v {
		c.PState |= arm64.PStatePAN
	} else {
		c.PState &^= arm64.PStatePAN
	}
}

// R reads general-purpose register i with XZR semantics.
func (c *VCPU) R(i uint8) uint64 {
	if i == arm64.XZR {
		return 0
	}
	return c.X[i]
}

// SetR writes general-purpose register i with XZR semantics.
func (c *VCPU) SetR(i uint8, v uint64) {
	if i != arm64.XZR {
		c.X[i] = v
	}
}

// SP returns the stack pointer selected by PSTATE.
func (c *VCPU) SP() uint64 {
	if c.PState&arm64.PStateSPSel != 0 && c.EL() != arm64.EL0 {
		if c.EL() == arm64.EL2 {
			return c.sys[arm64.SPEL2]
		}
		return c.sys[arm64.SPEL1]
	}
	return c.sys[arm64.SPEL0]
}

// SetSP writes the selected stack pointer.
func (c *VCPU) SetSP(v uint64) {
	if c.PState&arm64.PStateSPSel != 0 && c.EL() != arm64.EL0 {
		if c.EL() == arm64.EL2 {
			c.sys[arm64.SPEL2] = v
			return
		}
		c.sys[arm64.SPEL1] = v
		return
	}
	c.sys[arm64.SPEL0] = v
}

// baseReg reads register i as a load/store base (register 31 selects SP).
func (c *VCPU) baseReg(i uint8) uint64 {
	if i == 31 {
		return c.SP()
	}
	return c.X[i]
}

// Sys reads a system register without charging cycles (for functional
// privileged software and tests; emulated MRS goes through ReadSysReg).
func (c *VCPU) Sys(r arm64.SysReg) uint64 { return c.sys[r] }

// SetSys writes a system register without charging cycles.
func (c *VCPU) SetSys(r arm64.SysReg, v uint64) { c.sys[r] = v }

// ReadSysReg performs a cycle-charged MRS as privileged software would.
func (c *VCPU) ReadSysReg(r arm64.SysReg) uint64 {
	c.Charge(c.Prof.SysRegReadCost(r))
	return c.sys[r]
}

// WriteSysReg performs a cycle-charged MSR as privileged software would.
func (c *VCPU) WriteSysReg(r arm64.SysReg, v uint64) {
	c.Charge(c.Prof.SysRegWriteCost(r))
	c.sys[r] = v
}

// Charge adds n cycles to the vCPU's counter. Functional privileged
// software (kernels, hypervisor) uses it to account for work that is not
// emulated instruction by instruction.
func (c *VCPU) Charge(n int64) { c.Cycles += n }

// ChargeInsns models n generic instructions executed by functional code.
func (c *VCPU) ChargeInsns(n int64) { c.Cycles += n * c.Prof.InsnCost }

// flushBatch commits cycles accumulated during a block-resident replay.
// Called before every point where Cycles is observable: terminator handler
// dispatch (exception delivery, TTBR-write tracing), exits from runBlock,
// and exception delivery itself. Charge is the only mutation path, keeping
// the lint invariant that Cycles moves only through Charge/ChargeInsns.
func (c *VCPU) flushBatch() {
	if c.batch != 0 {
		c.Charge(c.batch)
		c.batch = 0
	}
}

// stage2Enabled reports whether stage-2 translation applies to the current
// execution context (EL0/EL1 with HCR_EL2.VM set).
func (c *VCPU) stage2Enabled() bool {
	return c.sys[arm64.HCREL2]&HCRVM != 0 && c.EL() != arm64.EL2
}

// CurrentVMID returns the VMID tag for TLB entries (0 outside stage-2).
func (c *VCPU) CurrentVMID() uint16 {
	if c.sys[arm64.HCREL2]&HCRVM == 0 {
		return 0
	}
	return VTTBRVMID(c.sys[arm64.VTTBREL2])
}

func (c *VCPU) String() string {
	return fmt.Sprintf("vcpu{pc=%#x el=%v pan=%v cycles=%d}", c.PC, c.EL(), c.PAN(), c.Cycles)
}
