package cpu

import (
	"errors"
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// ErrInsnLimit is returned by Run when maxInsns is reached without an exit.
var ErrInsnLimit = errors.New("instruction limit reached")

// Run executes emulated code until an exception leaves the emulated world
// (to EL2, or to a functional EL1 kernel), or maxInsns instructions retire.
//
// Cached code replays in runBlock and runTrace; everything else goes
// through Step (see runLoop). Budget accounting is identical to a
// Step-per-iteration loop: every retired instruction and every delivered
// exception consumes one unit. With the decode cache off no block is ever
// cached, so Run is exactly the plain Step loop — the reference
// interpreter the identity lanes compare against.
func (c *VCPU) Run(maxInsns int64) (Exit, error) {
	insns := c.Insns
	tlbH, tlbM := c.Stats.TLBHits, c.Stats.TLBMisses
	codeH, codeM := c.Stats.CodeHits, c.Stats.CodeMisses
	exit, err := c.runLoop(maxInsns)
	c.flushTraceStats()
	notePerf(c.Insns-insns,
		int64(c.Stats.TLBHits-tlbH), int64(c.Stats.TLBMisses-tlbM),
		int64(c.Stats.CodeHits-codeH), int64(c.Stats.CodeMisses-codeM))
	return exit, err
}

// runLoop is the one place that chooses how the next instruction runs:
//
//  1. a deliverable IRQ, or EL2 → Step, which delivers (or refuses);
//  2. a live block cursor → runBlock;
//  3. a stitched trace at PC → runTrace;
//  4. a cached block at PC → open a cursor at its first instruction, then
//     runBlock;
//  5. otherwise → Step, which fetches, decodes and feeds the block builder.
//
// A dead cursor (PC moved away from it) is never resumed: a block entry and
// every exit of runTrace overwrite it and Step drops it, so a later
// coincidental expect match cannot replay a stale block.
func (c *VCPU) runLoop(maxInsns int64) (Exit, error) {
	for done := int64(0); done < maxInsns; {
		var n int64
		var exit *Exit
		var err error
		switch {
		case c.EL() == arm64.EL2 || c.PendingIRQ && c.PState&arm64.PStateI == 0:
			n = 1
			exit, err = c.Step()
		case c.cur.blk != nil && c.PC == c.cur.expect:
			n, exit, err = c.runBlock(maxInsns - done)
		default:
			if t := c.pickTrace(maxInsns - done); t != nil {
				n, exit, err = c.runTrace(t)
			} else if b := c.Decoded.enter(c, c.PC); b != nil {
				c.cur = blockCursor{blk: b, expect: c.PC}
				n, exit, err = c.runBlock(maxInsns - done)
			} else {
				n = 1
				exit, err = c.Step()
			}
		}
		done += n
		if err != nil {
			return Exit{}, err
		}
		if exit != nil {
			return *exit, nil
		}
	}
	return Exit{}, ErrInsnLimit
}

// runBlock replays the active block cursor in a tight loop, executing at
// most budget instructions. It preserves Step's semantics per instruction —
// the architectural fetch translation (usually a micro-TLB hit), stats, IRQ
// recognition and abort delivery — but batches the per-instruction InsnCost
// into c.batch, flushing through a single Charge before any point where
// Cycles is observable: terminator dispatch (the only instructions whose
// handlers trace, trap or exit), exception delivery, and every return path.
// A cursor at index 0 is a fresh block entry: once its fetch translation
// succeeds, the proof audit opens its span there. Returns the number of
// budget units consumed (retired instructions plus delivered fetch aborts,
// matching the Step loop's accounting).
func (c *VCPU) runBlock(budget int64) (int64, *Exit, error) {
	cur := &c.cur
	var done int64
	for done < budget && cur.blk != nil && c.PC == cur.expect {
		if c.PendingIRQ && c.PState&arm64.PStateI == 0 {
			break // delivered by the caller's next Step, on its own budget unit
		}
		if _, ab := c.Translate(mem.VA(c.PC), mem.AccessExec, false); ab != nil {
			cur.blk = nil
			ab.Syndrome.Class = classifyAbort(mem.AccessExec, c.EL(), ab.Syndrome.Stage)
			done++
			exit := c.deliver(ab.Syndrome, c.PC) // deliver flushes the batch
			return done, exit, nil
		}
		if cur.idx == 0 && c.audit != nil {
			c.audit.noteEnter(c, cur.blk, c.PC)
		}
		in := cur.blk.insns[cur.idx]
		cur.idx++
		cur.expect += arm64.InsnBytes
		if cur.idx == len(cur.blk.insns) {
			cur.blk = nil
		}
		c.Stats.CodeHits++
		c.Insns++
		done++
		c.batch += c.Prof.InsnCost
		c.nextPC = c.PC + arm64.InsnBytes
		if in.Op.Terminates() {
			// Terminators are the only ops whose handlers can observe
			// Cycles (exception entry, the TTBR0-write trace hook, TLBI).
			c.flushBatch()
		}
		if c.audit != nil {
			c.audit.noteDispatch(c, c.PC)
		}
		exit := handlers[in.Op](c, in)
		if c.stepErr != nil {
			err := c.stepErr
			c.stepErr = nil
			c.flushBatch()
			return done, nil, err
		}
		if exit != nil {
			c.flushBatch()
			return done, exit, nil
		}
		c.PC = c.nextPC
	}
	c.flushBatch()
	return done, nil, nil
}

// deliver routes and takes a synchronous exception; it returns a non-nil
// Exit when the exception leaves the emulated world.
func (c *VCPU) deliver(s Syndrome, preferReturn uint64) *Exit {
	// Exception entry observes and charges Cycles; commit any cycles still
	// batched by a block-resident replay (data aborts from loads/stores
	// reach here mid-block with a non-empty batch).
	c.flushBatch()
	// An exception hands control to a handler that may change mappings or
	// rewrite code before returning; never resume a block across it.
	c.cur.blk = nil
	c.excSeq++
	target := c.routeSyncException(s)
	c.TakeException(target, s, preferReturn)
	if target == arm64.EL2 || !c.EmulatedEL1 {
		return &Exit{TargetEL: target, Syndrome: s}
	}
	return nil
}

// Step is the reference interpreter. It delivers a deliverable IRQ, or
// fetches the word at PC (architectural translation, charged walk,
// stage-1/stage-2 permission checks), decodes it, feeds the block builder
// and dispatches it through the per-form handler table. It never replays a
// cached block: it drops any block cursor, and runLoop alone enters and
// replays cached code. It returns a non-nil Exit when control leaves the
// emulated world.
func (c *VCPU) Step() (*Exit, error) {
	if c.EL() == arm64.EL2 {
		return nil, fmt.Errorf("interpreter invoked at EL2 (pc=%#x)", c.PC)
	}
	c.cur.blk = nil
	if c.PendingIRQ && c.PState&arm64.PStateI == 0 {
		c.PendingIRQ = false
		s := Syndrome{Class: ECIRQ, PC: c.PC}
		target := c.routeIRQ()
		c.TakeException(target, s, c.PC)
		if target == arm64.EL2 || !c.EmulatedEL1 {
			return &Exit{TargetEL: target, Syndrome: s}, nil
		}
		return nil, nil
	}

	word, ab := c.FetchInsn(mem.VA(c.PC))
	if ab != nil {
		ab.Syndrome.Class = classifyAbort(mem.AccessExec, c.EL(), ab.Syndrome.Stage)
		return c.deliver(ab.Syndrome, c.PC), nil
	}
	in := arm64.Decode(word)
	c.Stats.CodeMisses++
	c.Decoded.noteDecoded(c, c.PC, in)

	c.Insns++
	c.Charge(c.Prof.InsnCost)
	c.nextPC = c.PC + arm64.InsnBytes
	if c.audit != nil {
		c.audit.noteDispatch(c, c.PC)
	}
	exit := handlers[in.Op](c, in)
	if c.stepErr != nil {
		err := c.stepErr
		c.stepErr = nil
		return nil, err
	}
	if exit != nil {
		return exit, nil
	}
	c.PC = c.nextPC
	return nil, nil
}

func classifyAbort(acc mem.AccessType, from arm64.EL, stage int) ExcClass {
	lower := from == arm64.EL0 || stage == 2
	if acc == mem.AccessExec {
		if lower {
			return ECInsAbortLower
		}
		return ECInsAbortSame
	}
	if lower {
		return ECDataAbortLower
	}
	return ECDataAbortSame
}

func (c *VCPU) aluAddSub(in arm64.Insn, a, b uint64, sub bool) {
	var v uint64
	if sub {
		v = a - b
	} else {
		v = a + b
	}
	if !in.SF {
		v = uint64(uint32(v))
	}
	if in.SetFlags {
		c.setFlagsAddSub(a, b, v, sub, in.SF)
	}
	if in.Rd == arm64.XZR && !in.SetFlags {
		return
	}
	c.SetR(in.Rd, v)
}

func (c *VCPU) setNZ(v uint64) {
	c.PState &^= arm64.PStateN | arm64.PStateZ | arm64.PStateC | arm64.PStateV
	if v == 0 {
		c.PState |= arm64.PStateZ
	}
	if v>>63 != 0 {
		c.PState |= arm64.PStateN
	}
}

func (c *VCPU) setFlagsAddSub(a, b, v uint64, sub, sf bool) {
	c.PState &^= arm64.PStateN | arm64.PStateZ | arm64.PStateC | arm64.PStateV
	signBit := uint(63)
	if !sf {
		signBit = 31
		a, b, v = uint64(uint32(a)), uint64(uint32(b)), uint64(uint32(v))
	}
	if v == 0 {
		c.PState |= arm64.PStateZ
	}
	if v>>signBit&1 != 0 {
		c.PState |= arm64.PStateN
	}
	if sub {
		if a >= b {
			c.PState |= arm64.PStateC
		}
		if (a^b)>>signBit&1 != 0 && (a^v)>>signBit&1 != 0 {
			c.PState |= arm64.PStateV
		}
	} else {
		if v < a {
			c.PState |= arm64.PStateC
		}
		if (a^b)>>signBit&1 == 0 && (a^v)>>signBit&1 != 0 {
			c.PState |= arm64.PStateV
		}
	}
}

func (c *VCPU) condHolds(cond uint8) bool {
	n := c.PState&arm64.PStateN != 0
	z := c.PState&arm64.PStateZ != 0
	cf := c.PState&arm64.PStateC != 0
	v := c.PState&arm64.PStateV != 0
	switch cond {
	case arm64.CondEQ:
		return z
	case arm64.CondNE:
		return !z
	case arm64.CondCS:
		return cf
	case arm64.CondCC:
		return !cf
	case arm64.CondMI:
		return n
	case arm64.CondPL:
		return !n
	case arm64.CondVS:
		return v
	case arm64.CondVC:
		return !v
	case arm64.CondHI:
		return cf && !z
	case arm64.CondLS:
		return !cf || z
	case arm64.CondGE:
		return n == v
	case arm64.CondLT:
		return n != v
	case arm64.CondGT:
		return !z && n == v
	case arm64.CondLE:
		return z || n != v
	default:
		return true // AL/NV
	}
}

// execMSRImm handles MSR <pstatefield>, #imm: the PAN toggle that is
// LightZone's cheap domain switch, plus SPSel.
func (c *VCPU) execMSRImm(in arm64.Insn) *Exit {
	if c.EL() == arm64.EL0 {
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	switch {
	case in.Sys.Op1 == arm64.PStateFieldPANOp1 && in.Sys.Op2 == arm64.PStateFieldPANOp2:
		c.Charge(c.Prof.PanToggleCost)
		c.SetPAN(in.Sys.CRm&1 != 0)
	case in.Sys.Op1 == arm64.PStateFieldSPSel1 && in.Sys.Op2 == arm64.PStateFieldSPSel2:
		if in.Sys.CRm&1 != 0 {
			c.PState |= arm64.PStateSPSel
		} else {
			c.PState &^= arm64.PStateSPSel
		}
	default:
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	return nil
}

// execMSRReg handles MSR/MRS of named system registers, applying the
// hypervisor trap configuration (HCR_EL2.TVM/TRVM) that LightZone uses to
// lock stage-1 translation for PAN-mode processes (§5.1.2).
func (c *VCPU) execMSRReg(in arm64.Insn) *Exit {
	r, known := arm64.LookupSysReg(in.Sys)
	isRead := in.Op == arm64.OpMRS
	if !known {
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	if r.MinEL() > c.EL() {
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	if c.EL() == arm64.EL1 && arm64.IsStage1Reg(r) {
		hcr := c.sys[arm64.HCREL2]
		if !isRead && hcr&HCRTVM != 0 || isRead && hcr&HCRTRVM != 0 {
			s := Syndrome{
				Class: ECMSRTrap, SysEnc: in.Sys, IsRead: isRead,
				Rt: in.Rt, PC: c.PC,
			}
			return c.deliverIn(s, c.nextPC)
		}
	}
	if isRead {
		c.Charge(c.Prof.SysRegReadCost(r))
		c.SetR(in.Rt, c.sys[r])
		return nil
	}
	if r.ReadOnly() {
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	c.Charge(c.Prof.SysRegWriteCost(r))
	if r == arm64.TTBR0EL1 && c.OnTTBR0Write != nil {
		c.OnTTBR0Write(c.sys[r], c.R(in.Rt))
	}
	c.sys[r] = c.R(in.Rt)
	return nil
}

// execSYS handles the SYS space (TLBI at CRn=8, AT at CRn=7), trapped to
// EL2 under HCR_EL2.TTLB/TACR as LightZone configures for kernel-mode
// processes ("TLB maintenance and system register access", §5.1.1).
func (c *VCPU) execSYS(in arm64.Insn) *Exit {
	if c.EL() == arm64.EL0 {
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	hcr := c.sys[arm64.HCREL2]
	trapped := (in.Sys.CRn == 8 && hcr&HCRTTLB != 0) ||
		(in.Sys.CRn == 7 && hcr&HCRTACR != 0)
	if trapped {
		s := Syndrome{Class: ECMSRTrap, SysEnc: in.Sys, Rt: in.Rt, PC: c.PC}
		return c.deliverIn(s, c.nextPC)
	}
	switch in.Sys.CRn {
	case 8: // TLBI: invalidate this VM's entries
		c.Charge(c.Prof.DSBCost)
		c.TLB.InvalidateVMID(c.CurrentVMID())
	case 7: // AT: address translation into PAR_EL1
		pa, ab := c.Translate(mem.VA(c.R(in.Rt)), mem.AccessRead, false)
		if ab != nil {
			c.sys[arm64.PAREL1] = 1 // F bit: translation failed
		} else {
			c.sys[arm64.PAREL1] = uint64(pa) &^ uint64(mem.PageMask)
		}
	default:
		return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
	}
	return nil
}
