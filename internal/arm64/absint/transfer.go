package absint

import "lightzone/internal/arm64"

// MemOracle resolves constant-address loads against memory the caller can
// prove immutable under the state being verified (for gate verification:
// the read-only, privileged TTBR1 mappings of the GateTab and TTBRTab).
// ok=false means the location is not proven immutable; the load result is
// then a tainted ⊤, never a wrong constant.
type MemOracle interface {
	ReadConst(va uint64, size int) (uint64, bool)
}

// EffectKind classifies an observable side effect of one instruction.
type EffectKind uint8

const (
	// EffMemRead and EffMemWrite are data accesses.
	EffMemRead EffectKind = iota
	EffMemWrite
	// EffSysRegWrite is MSR <sysreg>, Xt (Sys identifies the register).
	EffSysRegWrite
	// EffPStateWrite is MSR <pstatefield>, #imm for PAN or SPSel; the PAN
	// lattice carries PAN's value.
	EffPStateWrite
	// EffSys is the SYS/SYSL space: TLBI, AT, cache maintenance.
	EffSys
	// EffBarrier is ISB/DSB/DMB (charge-relevant, semantically inert here).
	EffBarrier
)

func (k EffectKind) String() string {
	switch k {
	case EffMemRead:
		return "mem-read"
	case EffMemWrite:
		return "mem-write"
	case EffSysRegWrite:
		return "sysreg-write"
	case EffPStateWrite:
		return "pstate-write"
	case EffSys:
		return "sys"
	case EffBarrier:
		return "barrier"
	}
	return "effect?"
}

// Effect is one observable side effect, anchored at the instruction that
// produced it.
type Effect struct {
	Kind  EffectKind
	PC    uint64
	Index int // instruction index within the analyzed region/block

	Addr AbsVal // EffMemRead / EffMemWrite
	Size int
	Val  AbsVal // value stored, or written to the system register

	Sys     arm64.SysRegEnc // EffSysRegWrite / EffPStateWrite / EffSys
	Barrier arm64.Op        // EffBarrier: OpISB, OpDSB or OpDMB
}

// stepInsn applies one straight-line instruction's dataflow to s, mirroring
// the concrete semantics of internal/cpu/handlers.go. Control transfers,
// exception generation and undecodable words are the interpreter's job
// (interp.go) and must not be passed here; unlisted forms conservatively
// clobber their destination with a tainted ⊤.
func stepInsn(s *State, pc uint64, index int, in arm64.Insn, orc MemOracle, emit func(Effect)) {
	eff := func(e Effect) {
		e.PC = pc
		e.Index = index
		emit(e)
	}
	switch in.Op {
	case arm64.OpNOP:
	case arm64.OpISB, arm64.OpDSB, arm64.OpDMB:
		eff(Effect{Kind: EffBarrier, Barrier: in.Op})

	case arm64.OpMOVZ:
		s.setReg(in.Rd, ConstVal(uint64(in.Imm)<<in.ShiftAmt, false))
	case arm64.OpMOVK:
		old := s.getCell(in.Rd).v
		maskv := uint64(0xFFFF) << in.ShiftAmt
		if v, ok := old.IsConst(); ok {
			s.setReg(in.Rd, ConstVal(v&^maskv|uint64(in.Imm)<<in.ShiftAmt, old.Taint))
		} else {
			s.setReg(in.Rd, TopVal(old.Taint))
		}
	case arm64.OpMOVN:
		s.setReg(in.Rd, ConstVal(^(uint64(in.Imm)<<in.ShiftAmt), false))
	case arm64.OpADR:
		s.setReg(in.Rd, ConstVal(pc+uint64(in.Imm), false))

	case arm64.OpAddImm:
		s.aluAddSub(in, s.getCell(in.Rn), cell{v: ConstVal(uint64(in.Imm), false)}, false)
	case arm64.OpSubImm:
		s.aluAddSub(in, s.getCell(in.Rn), cell{v: ConstVal(uint64(in.Imm), false)}, true)
	case arm64.OpAddReg:
		s.aluAddSub(in, s.getCell(in.Rn), s.shiftedRm(in), false)
	case arm64.OpSubReg:
		s.aluAddSub(in, s.getCell(in.Rn), s.shiftedRm(in), true)

	case arm64.OpAndReg:
		v := andVal(s.getCell(in.Rn).v, s.shiftedRm(in).v)
		s.setReg(in.Rd, v)
		if in.SetFlags {
			// ANDS sets NZ from the result, which the operand-equality
			// fact cannot express.
			s.cmp.valid = false
		}
	case arm64.OpOrrReg:
		if in.Rn == 31 && in.ShiftAmt == 0 {
			// ORR rd, xzr, rm is the MOV alias: a copy keeps the source's
			// value identity, so refining either register refines both.
			s.setCell(in.Rd, s.getCell(in.Rm))
			break
		}
		s.setReg(in.Rd, binConst(s.getCell(in.Rn).v, s.shiftedRm(in).v,
			func(x, y uint64) uint64 { return x | y }))
	case arm64.OpEorReg:
		s.setReg(in.Rd, binConst(s.getCell(in.Rn).v, s.shiftedRm(in).v,
			func(x, y uint64) uint64 { return x ^ y }))

	case arm64.OpLSLV:
		n, m := s.getCell(in.Rn).v, s.getCell(in.Rm).v
		if sh, ok := m.IsConst(); ok {
			s.setReg(in.Rd, taintedAs(shlVal(n, uint8(sh&63)), n.Taint || m.Taint))
		} else {
			s.setReg(in.Rd, TopVal(n.Taint || m.Taint))
		}
	case arm64.OpLSRV:
		n, m := s.getCell(in.Rn).v, s.getCell(in.Rm).v
		if sh, ok := m.IsConst(); ok {
			s.setReg(in.Rd, taintedAs(shrVal(n, uint8(sh&63)), n.Taint || m.Taint))
		} else {
			s.setReg(in.Rd, TopVal(n.Taint || m.Taint))
		}
	case arm64.OpMAdd:
		prod := binConst(s.getCell(in.Rn).v, s.getCell(in.Rm).v,
			func(x, y uint64) uint64 { return x * y })
		s.setReg(in.Rd, addVal(s.getCell(in.Ra).v, prod))
	case arm64.OpUDiv:
		s.setReg(in.Rd, binConst(s.getCell(in.Rn).v, s.getCell(in.Rm).v,
			func(x, y uint64) uint64 {
				if y == 0 {
					return 0
				}
				return x / y
			}))

	case arm64.OpUBFM:
		// The ARM ARM's two cases: UBFX when imms >= immr (LSR is its
		// imms == 63 case), UBFIZ otherwise (LSL is its imms+1 == immr
		// case).
		immr := uint64(in.ShiftAmt)
		imms := uint64(in.Imm)
		v := s.getCell(in.Rn).v
		if imms >= immr {
			s.setReg(in.Rd, lowBits(shrVal(v, uint8(immr)), imms-immr+1))
		} else {
			s.setReg(in.Rd, shlVal(lowBits(v, imms+1), uint8(64-immr)))
		}

	case arm64.OpCSel:
		s.setReg(in.Rd, Join(s.getCell(in.Rn).v, s.getCell(in.Rm).v))
	case arm64.OpCSInc:
		s.setReg(in.Rd, Join(s.getCell(in.Rn).v,
			addVal(s.getCell(in.Rm).v, ConstVal(1, false))))

	case arm64.OpLdrImm, arm64.OpLdur, arm64.OpLdtr:
		addr := addVal(s.baseCell(in.Rn).v, ConstVal(uint64(in.Imm), false))
		s.load(in.Rt, addr, 1<<in.Size, orc, eff)
	case arm64.OpLdrReg:
		addr := addVal(s.baseCell(in.Rn).v, s.getCell(in.Rm).v)
		s.load(in.Rt, addr, 1<<in.Size, orc, eff)
	case arm64.OpLdp:
		addr := addVal(s.baseCell(in.Rn).v, ConstVal(uint64(in.Imm), false))
		s.load(in.Rt, addr, 8, orc, eff)
		s.load(in.Rt2, addVal(addr, ConstVal(8, false)), 8, orc, eff)

	case arm64.OpStrImm, arm64.OpStur, arm64.OpSttr:
		addr := addVal(s.baseCell(in.Rn).v, ConstVal(uint64(in.Imm), false))
		eff(Effect{Kind: EffMemWrite, Addr: addr, Size: 1 << in.Size, Val: s.getCell(in.Rt).v})
	case arm64.OpStrReg:
		addr := addVal(s.baseCell(in.Rn).v, s.getCell(in.Rm).v)
		eff(Effect{Kind: EffMemWrite, Addr: addr, Size: 1 << in.Size, Val: s.getCell(in.Rt).v})
	case arm64.OpStp:
		addr := addVal(s.baseCell(in.Rn).v, ConstVal(uint64(in.Imm), false))
		eff(Effect{Kind: EffMemWrite, Addr: addr, Size: 8, Val: s.getCell(in.Rt).v})
		eff(Effect{Kind: EffMemWrite, Addr: addVal(addr, ConstVal(8, false)), Size: 8, Val: s.getCell(in.Rt2).v})

	case arm64.OpMSRReg:
		src := s.getCell(in.Rt)
		if in.Sys.Key() == ttbr0Key {
			// The write keeps the source's identity: a later equality
			// proof on any alias (MRS readback, the original register)
			// narrows the installed TTBR0 too.
			s.ttbr0 = src
			s.ttbr0Written = true
			s.ttbr0VA = pc
		}
		eff(Effect{Kind: EffSysRegWrite, Sys: in.Sys, Val: src.v})
	case arm64.OpMRS:
		if in.Sys.Key() == ttbr0Key {
			if s.ttbr0.id == 0 {
				s.ttbr0.id = s.fresh()
			}
			s.setCell(in.Rt, s.ttbr0)
			break
		}
		// Other system registers are not tracked; several are writable
		// from EL0 (TPIDR_EL0 and friends), so the read is tainted.
		s.setReg(in.Rt, TopVal(true))
	case arm64.OpMSRImm:
		switch {
		case in.Sys.Op1 == arm64.PStateFieldPANOp1 && in.Sys.Op2 == arm64.PStateFieldPANOp2:
			s.pan = Bit0
			if in.Sys.CRm&1 != 0 {
				s.pan = Bit1
			}
			s.panVA = pc
			eff(Effect{Kind: EffPStateWrite, Sys: in.Sys})
		case in.Sys.Op1 == arm64.PStateFieldSPSel1 && in.Sys.Op2 == arm64.PStateFieldSPSel2:
			eff(Effect{Kind: EffPStateWrite, Sys: in.Sys})
		default:
			// The concrete machine delivers an undefined-instruction
			// exception; report it like an untracked system write so the
			// caller fails closed either way.
			eff(Effect{Kind: EffSysRegWrite, Sys: in.Sys})
		}
	case arm64.OpSYS, arm64.OpSYSL:
		eff(Effect{Kind: EffSys, Sys: in.Sys})

	default:
		// Unlisted dataflow form: clobber the destination, taint it.
		s.setReg(in.Rd, TopVal(true))
	}
}

var ttbr0Key = arm64.TTBR0EL1.Enc().Key()

// taintedAs stamps a taint bit onto a computed value (shift helpers take a
// single operand; variable-shift forms combine both operands' taint).
func taintedAs(v AbsVal, taint bool) AbsVal {
	v.Taint = taint
	return v
}

// aluAddSub mirrors the concrete add/sub helper: 32-bit forms truncate, a
// flag-setting 64-bit subtraction records the operand-equality fact for
// B.EQ/B.NE refinement, and any other flag write clears it.
func (s *State) aluAddSub(in arm64.Insn, a, b cell, sub bool) {
	var v AbsVal
	if sub {
		v = subVal(a.v, b.v)
	} else {
		v = addVal(a.v, b.v)
	}
	if !in.SF {
		if cv, ok := v.IsConst(); ok {
			v = ConstVal(uint64(uint32(cv)), v.Taint)
		} else {
			v = taintedAs(RangeVal(0, 0xFFFF_FFFF, false), v.Taint)
		}
	}
	if in.SetFlags {
		if sub && in.SF {
			s.cmp = cmpFact{valid: true, a: a, b: b}
		} else {
			s.cmp.valid = false
		}
	}
	if in.Rd == 31 && !in.SetFlags {
		return
	}
	s.setReg(in.Rd, v)
}

// shiftedRm materializes the shifted register operand. An unshifted operand
// keeps its cell identity (CMP xA, xB compares the registers themselves);
// a shifted one is an anonymous computed value.
func (s *State) shiftedRm(in arm64.Insn) cell {
	c := s.getCell(in.Rm)
	if in.ShiftAmt == 0 {
		return c
	}
	return cell{v: shlVal(c.v, in.ShiftAmt)}
}

// load applies a data load: the read is an effect, and the result is a
// trusted constant only when the address is constant and the oracle proves
// the location immutable — otherwise the loaded value is a tainted ⊤.
func (s *State) load(rt uint8, addr AbsVal, size int, orc MemOracle, eff func(Effect)) {
	eff(Effect{Kind: EffMemRead, Addr: addr, Size: size})
	if a, ok := addr.IsConst(); ok && orc != nil {
		if v, ok := orc.ReadConst(a, size); ok {
			s.setReg(rt, ConstVal(v, false))
			return
		}
	}
	s.setReg(rt, TopVal(true))
}
