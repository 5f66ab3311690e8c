package cpu

import (
	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// Handler executes one decoded instruction form. On entry c.nextPC holds the
// fall-through address; a handler changes it to branch, or leaves it alone.
// A non-nil Exit means control left the emulated world. Handlers report Go
// errors through c.stepErr (ERET state corruption), and after delivering an
// exception they leave c.nextPC equal to the exception-adjusted PC so the
// dispatch loop commits the right program counter either way.
type Handler func(*VCPU, arm64.Insn) *Exit

// handlers is the per-form dispatch table, indexed by arm64.Op. Decode
// produces the index once; cached blocks replay it with no re-dispatch on
// mnemonics or instruction classes. The table is assigned exactly once, at
// package initialization, and never written afterwards — that immutability
// is what lets any number of Machines dispatch through it concurrently
// without synchronization (see DESIGN.md §concurrency).
var handlers = buildHandlers()

func buildHandlers() [arm64.NumOps]Handler {
	var handlers [arm64.NumOps]Handler
	for op := range handlers {
		handlers[op] = execUnknown
	}
	handlers[arm64.OpNOP] = func(c *VCPU, in arm64.Insn) *Exit { return nil }
	handlers[arm64.OpISB] = func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.ISBCost)
		return nil
	}
	barrier := func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.DSBCost)
		return nil
	}
	handlers[arm64.OpDSB] = barrier
	handlers[arm64.OpDMB] = barrier

	handlers[arm64.OpMOVZ] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, uint64(in.Imm)<<in.ShiftAmt)
		return nil
	}
	handlers[arm64.OpMOVK] = func(c *VCPU, in arm64.Insn) *Exit {
		maskv := uint64(0xFFFF) << in.ShiftAmt
		c.SetR(in.Rd, c.R(in.Rd)&^maskv|uint64(in.Imm)<<in.ShiftAmt)
		return nil
	}
	handlers[arm64.OpMOVN] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, ^(uint64(in.Imm) << in.ShiftAmt))
		return nil
	}
	handlers[arm64.OpADR] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, c.PC+uint64(in.Imm))
		return nil
	}

	handlers[arm64.OpAddImm] = func(c *VCPU, in arm64.Insn) *Exit {
		c.aluAddSub(in, c.R(in.Rn), uint64(in.Imm), false)
		return nil
	}
	handlers[arm64.OpSubImm] = func(c *VCPU, in arm64.Insn) *Exit {
		c.aluAddSub(in, c.R(in.Rn), uint64(in.Imm), true)
		return nil
	}
	handlers[arm64.OpAddReg] = func(c *VCPU, in arm64.Insn) *Exit {
		c.aluAddSub(in, c.R(in.Rn), c.R(in.Rm)<<in.ShiftAmt, false)
		return nil
	}
	handlers[arm64.OpSubReg] = func(c *VCPU, in arm64.Insn) *Exit {
		c.aluAddSub(in, c.R(in.Rn), c.R(in.Rm)<<in.ShiftAmt, true)
		return nil
	}
	handlers[arm64.OpAndReg] = func(c *VCPU, in arm64.Insn) *Exit {
		v := c.R(in.Rn) & (c.R(in.Rm) << in.ShiftAmt)
		c.SetR(in.Rd, v)
		if in.SetFlags {
			c.setNZ(v)
		}
		return nil
	}
	handlers[arm64.OpOrrReg] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, c.R(in.Rn)|c.R(in.Rm)<<in.ShiftAmt)
		return nil
	}
	handlers[arm64.OpEorReg] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, c.R(in.Rn)^c.R(in.Rm)<<in.ShiftAmt)
		return nil
	}
	handlers[arm64.OpLSLV] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, c.R(in.Rn)<<(c.R(in.Rm)&63))
		return nil
	}
	handlers[arm64.OpLSRV] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, c.R(in.Rn)>>(c.R(in.Rm)&63))
		return nil
	}
	handlers[arm64.OpMAdd] = func(c *VCPU, in arm64.Insn) *Exit {
		c.SetR(in.Rd, c.R(in.Ra)+c.R(in.Rn)*c.R(in.Rm))
		return nil
	}
	handlers[arm64.OpUDiv] = func(c *VCPU, in arm64.Insn) *Exit {
		if d := c.R(in.Rm); d == 0 {
			c.SetR(in.Rd, 0)
		} else {
			c.SetR(in.Rd, c.R(in.Rn)/d)
		}
		return nil
	}

	handlers[arm64.OpB] = func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.BranchCost)
		c.nextPC = c.PC + uint64(in.Imm)
		return nil
	}
	handlers[arm64.OpBL] = func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.BranchCost)
		c.SetR(30, c.nextPC)
		c.nextPC = c.PC + uint64(in.Imm)
		return nil
	}
	handlers[arm64.OpBCond] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.condHolds(in.Cond) {
			c.Charge(c.Prof.BranchCost)
			c.nextPC = c.PC + uint64(in.Imm)
		}
		return nil
	}
	handlers[arm64.OpCBZ] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.R(in.Rt) == 0 {
			c.Charge(c.Prof.BranchCost)
			c.nextPC = c.PC + uint64(in.Imm)
		}
		return nil
	}
	handlers[arm64.OpCBNZ] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.R(in.Rt) != 0 {
			c.Charge(c.Prof.BranchCost)
			c.nextPC = c.PC + uint64(in.Imm)
		}
		return nil
	}
	handlers[arm64.OpBR] = func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.BranchCost)
		c.nextPC = c.R(in.Rn)
		return nil
	}
	handlers[arm64.OpBLR] = func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.BranchCost)
		c.SetR(30, c.nextPC)
		c.nextPC = c.R(in.Rn)
		return nil
	}
	handlers[arm64.OpRET] = func(c *VCPU, in arm64.Insn) *Exit {
		c.Charge(c.Prof.BranchCost)
		c.nextPC = c.R(in.Rn)
		return nil
	}

	handlers[arm64.OpUBFM] = func(c *VCPU, in arm64.Insn) *Exit {
		// The ARM ARM's two cases: UBFX when imms >= immr (LSR is its
		// imms == 63 case), UBFIZ otherwise (LSL is its imms+1 == immr
		// case).
		immr := uint64(in.ShiftAmt)
		imms := uint64(in.Imm)
		v := c.R(in.Rn)
		if imms >= immr {
			c.SetR(in.Rd, v>>immr&(1<<(imms-immr+1)-1))
		} else {
			c.SetR(in.Rd, (v&(1<<(imms+1)-1))<<(64-immr))
		}
		return nil
	}

	handlers[arm64.OpCSel] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.condHolds(in.Cond) {
			c.SetR(in.Rd, c.R(in.Rn))
		} else {
			c.SetR(in.Rd, c.R(in.Rm))
		}
		return nil
	}
	handlers[arm64.OpCSInc] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.condHolds(in.Cond) {
			c.SetR(in.Rd, c.R(in.Rn))
		} else {
			c.SetR(in.Rd, c.R(in.Rm)+1)
		}
		return nil
	}

	handlers[arm64.OpLdp] = func(c *VCPU, in arm64.Insn) *Exit {
		addr := mem.VA(c.baseReg(in.Rn) + uint64(in.Imm))
		v1, ab := c.MemRead(addr, 8, false)
		if ab != nil {
			return c.deliverAbort(ab, mem.AccessRead)
		}
		v2, ab := c.MemRead(addr+8, 8, false)
		if ab != nil {
			return c.deliverAbort(ab, mem.AccessRead)
		}
		c.SetR(in.Rt, v1)
		c.SetR(in.Rt2, v2)
		return nil
	}
	handlers[arm64.OpStp] = func(c *VCPU, in arm64.Insn) *Exit {
		addr := mem.VA(c.baseReg(in.Rn) + uint64(in.Imm))
		if ab := c.MemWrite(addr, 8, c.R(in.Rt), false); ab != nil {
			return c.deliverAbort(ab, mem.AccessWrite)
		}
		if ab := c.MemWrite(addr+8, 8, c.R(in.Rt2), false); ab != nil {
			return c.deliverAbort(ab, mem.AccessWrite)
		}
		return nil
	}
	handlers[arm64.OpLdrReg] = func(c *VCPU, in arm64.Insn) *Exit {
		addr := mem.VA(c.baseReg(in.Rn) + c.R(in.Rm))
		v, ab := c.MemRead(addr, 1<<in.Size, false)
		if ab != nil {
			return c.deliverAbort(ab, mem.AccessRead)
		}
		c.SetR(in.Rt, v)
		return nil
	}
	handlers[arm64.OpStrReg] = func(c *VCPU, in arm64.Insn) *Exit {
		addr := mem.VA(c.baseReg(in.Rn) + c.R(in.Rm))
		if ab := c.MemWrite(addr, 1<<in.Size, c.R(in.Rt), false); ab != nil {
			return c.deliverAbort(ab, mem.AccessWrite)
		}
		return nil
	}

	load := func(c *VCPU, in arm64.Insn) *Exit {
		addr := mem.VA(c.baseReg(in.Rn) + uint64(in.Imm))
		v, ab := c.MemRead(addr, 1<<in.Size, in.Op == arm64.OpLdtr)
		if ab != nil {
			return c.deliverAbort(ab, mem.AccessRead)
		}
		c.SetR(in.Rt, v)
		return nil
	}
	handlers[arm64.OpLdrImm] = load
	handlers[arm64.OpLdur] = load
	handlers[arm64.OpLdtr] = load
	store := func(c *VCPU, in arm64.Insn) *Exit {
		addr := mem.VA(c.baseReg(in.Rn) + uint64(in.Imm))
		if ab := c.MemWrite(addr, 1<<in.Size, c.R(in.Rt), in.Op == arm64.OpSttr); ab != nil {
			return c.deliverAbort(ab, mem.AccessWrite)
		}
		return nil
	}
	handlers[arm64.OpStrImm] = store
	handlers[arm64.OpStur] = store
	handlers[arm64.OpSttr] = store

	handlers[arm64.OpSVC] = func(c *VCPU, in arm64.Insn) *Exit {
		return c.deliverIn(Syndrome{Class: ECSVC, Imm: uint16(in.Imm), PC: c.PC}, c.nextPC)
	}
	handlers[arm64.OpHVC] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.EL() == arm64.EL0 {
			return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
		}
		return c.deliverIn(Syndrome{Class: ECHVC, Imm: uint16(in.Imm), PC: c.PC}, c.nextPC)
	}
	handlers[arm64.OpSMC] = func(c *VCPU, in arm64.Insn) *Exit {
		return c.deliverIn(Syndrome{Class: ECSMC, Imm: uint16(in.Imm), PC: c.PC}, c.PC)
	}
	handlers[arm64.OpERET] = func(c *VCPU, in arm64.Insn) *Exit {
		if c.EL() != arm64.EL1 {
			return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
		}
		if err := c.ERET(); err != nil {
			c.stepErr = err
			return nil
		}
		c.nextPC = c.PC
		return nil
	}

	handlers[arm64.OpMSRImm] = (*VCPU).execMSRImm
	handlers[arm64.OpMSRReg] = (*VCPU).execMSRReg
	handlers[arm64.OpMRS] = (*VCPU).execMSRReg
	handlers[arm64.OpSYS] = (*VCPU).execSYS
	handlers[arm64.OpSYSL] = (*VCPU).execSYS
	return handlers
}

// execUnknown delivers the undefined-instruction exception (also the
// OpUnknown slot).
func execUnknown(c *VCPU, in arm64.Insn) *Exit {
	return c.deliverIn(Syndrome{Class: ECUnknown, PC: c.PC}, c.PC)
}

// deliverIn delivers a synchronous exception from inside a handler and
// re-aims nextPC at the exception vector (TakeException rewrote c.PC), so
// the dispatch loop's PC commit is a no-op.
func (c *VCPU) deliverIn(s Syndrome, preferReturn uint64) *Exit {
	exit := c.deliver(s, preferReturn)
	c.nextPC = c.PC
	return exit
}

// deliverAbort classifies and delivers a data abort from a load/store
// handler; the faulting instruction is the preferred return address so it
// re-executes after the fault is repaired.
func (c *VCPU) deliverAbort(ab *Abort, acc mem.AccessType) *Exit {
	ab.Syndrome.Class = classifyAbort(acc, c.EL(), ab.Syndrome.Stage)
	return c.deliverIn(ab.Syndrome, c.PC)
}
