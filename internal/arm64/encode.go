package arm64

import "fmt"

// Fixed instruction words.
const (
	WordNOP   uint32 = 0xD503201F
	WordISB   uint32 = 0xD5033FDF
	WordDSBSY uint32 = 0xD5033F9F
	WordDMBSY uint32 = 0xD5033FBF
	WordERET  uint32 = 0xD69F03E0
)

// InsnBytes is the fixed A64 instruction width.
const InsnBytes = 4

func reg(r uint8) uint32 { return uint32(r & 0x1F) }

// MOVZ encodes MOVZ Xd, #imm16, LSL #(hw*16).
func MOVZ(rd uint8, imm16 uint16, hw uint8) uint32 {
	return 0xD2800000 | uint32(hw&3)<<21 | uint32(imm16)<<5 | reg(rd)
}

// MOVK encodes MOVK Xd, #imm16, LSL #(hw*16).
func MOVK(rd uint8, imm16 uint16, hw uint8) uint32 {
	return 0xF2800000 | uint32(hw&3)<<21 | uint32(imm16)<<5 | reg(rd)
}

// MOVN encodes MOVN Xd, #imm16, LSL #(hw*16).
func MOVN(rd uint8, imm16 uint16, hw uint8) uint32 {
	return 0x92800000 | uint32(hw&3)<<21 | uint32(imm16)<<5 | reg(rd)
}

// MovImm64 returns the MOVZ/MOVK sequence materializing a 64-bit constant.
func MovImm64(rd uint8, v uint64) []uint32 {
	out := []uint32{MOVZ(rd, uint16(v), 0)}
	for hw := uint8(1); hw < 4; hw++ {
		if part := uint16(v >> (16 * hw)); part != 0 {
			out = append(out, MOVK(rd, part, hw))
		}
	}
	return out
}

// ADDImm encodes ADD Xd, Xn, #imm12 (optionally shifted left by 12).
func ADDImm(rd, rn uint8, imm12 uint16, sh bool) uint32 {
	w := 0x91000000 | uint32(imm12&0xFFF)<<10 | reg(rn)<<5 | reg(rd)
	if sh {
		w |= 1 << 22
	}
	return w
}

// SUBImm encodes SUB Xd, Xn, #imm12.
func SUBImm(rd, rn uint8, imm12 uint16, sh bool) uint32 {
	w := 0xD1000000 | uint32(imm12&0xFFF)<<10 | reg(rn)<<5 | reg(rd)
	if sh {
		w |= 1 << 22
	}
	return w
}

// SUBSImm encodes SUBS Xd, Xn, #imm12 (CMP when rd == XZR).
func SUBSImm(rd, rn uint8, imm12 uint16) uint32 {
	return 0xF1000000 | uint32(imm12&0xFFF)<<10 | reg(rn)<<5 | reg(rd)
}

// CMPImm encodes CMP Xn, #imm12.
func CMPImm(rn uint8, imm12 uint16) uint32 { return SUBSImm(XZR, rn, imm12) }

// ADR encodes ADR Xd, <label> with a byte offset in [-1MB, 1MB).
func ADR(rd uint8, off int64) uint32 {
	u := uint32(off) & 0x1FFFFF
	return 0x10000000 | (u&3)<<29 | (u>>2)<<5 | reg(rd)
}

// ADDReg encodes ADD Xd, Xn, Xm.
func ADDReg(rd, rn, rm uint8) uint32 {
	return 0x8B000000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// ADDShifted encodes ADD Xd, Xn, Xm, LSL #amt.
func ADDShifted(rd, rn, rm, amt uint8) uint32 {
	return ADDReg(rd, rn, rm) | uint32(amt&0x3F)<<10
}

// SUBReg encodes SUB Xd, Xn, Xm.
func SUBReg(rd, rn, rm uint8) uint32 {
	return 0xCB000000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// SUBSReg encodes SUBS Xd, Xn, Xm (CMP register when rd == XZR).
func SUBSReg(rd, rn, rm uint8) uint32 {
	return 0xEB000000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// CMPReg encodes CMP Xn, Xm.
func CMPReg(rn, rm uint8) uint32 { return SUBSReg(XZR, rn, rm) }

// ANDReg encodes AND Xd, Xn, Xm.
func ANDReg(rd, rn, rm uint8) uint32 {
	return 0x8A000000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// ORRReg encodes ORR Xd, Xn, Xm (MOV Xd, Xm when rn == XZR).
func ORRReg(rd, rn, rm uint8) uint32 {
	return 0xAA000000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// MOVReg encodes MOV Xd, Xm as ORR Xd, XZR, Xm.
func MOVReg(rd, rm uint8) uint32 { return ORRReg(rd, XZR, rm) }

// EORReg encodes EOR Xd, Xn, Xm.
func EORReg(rd, rn, rm uint8) uint32 {
	return 0xCA000000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// ORRShifted encodes ORR Xd, Xn, Xm, LSL #amt.
func ORRShifted(rd, rn, rm, amt uint8) uint32 {
	return ORRReg(rd, rn, rm) | uint32(amt&0x3F)<<10
}

// UBFM encodes UBFM Xd, Xn, #immr, #imms (64-bit): the unsigned bitfield
// move underlying LSL/LSR by immediate.
func UBFM(rd, rn, immr, imms uint8) uint32 {
	return 0xD3400000 | uint32(immr&0x3F)<<16 | uint32(imms&0x3F)<<10 | reg(rn)<<5 | reg(rd)
}

// LSLImm encodes LSL Xd, Xn, #shift as UBFM.
func LSLImm(rd, rn, shift uint8) uint32 {
	shift &= 63
	return UBFM(rd, rn, 64-shift, 63-shift)
}

// LSRImm encodes LSR Xd, Xn, #shift as UBFM.
func LSRImm(rd, rn, shift uint8) uint32 {
	return UBFM(rd, rn, shift&63, 63)
}

// LSLV encodes LSLV Xd, Xn, Xm.
func LSLV(rd, rn, rm uint8) uint32 {
	return 0x9AC02000 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// LSRV encodes LSRV Xd, Xn, Xm.
func LSRV(rd, rn, rm uint8) uint32 {
	return 0x9AC02400 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// UDIV encodes UDIV Xd, Xn, Xm.
func UDIV(rd, rn, rm uint8) uint32 {
	return 0x9AC00800 | reg(rm)<<16 | reg(rn)<<5 | reg(rd)
}

// MADD encodes MADD Xd, Xn, Xm, Xa (MUL when ra == XZR).
func MADD(rd, rn, rm, ra uint8) uint32 {
	return 0x9B000000 | reg(rm)<<16 | reg(ra)<<10 | reg(rn)<<5 | reg(rd)
}

// MUL encodes MUL Xd, Xn, Xm.
func MUL(rd, rn, rm uint8) uint32 { return MADD(rd, rn, rm, XZR) }

// B encodes an unconditional branch with a byte offset.
func B(off int64) uint32 { return 0x14000000 | uint32(off>>2)&0x03FFFFFF }

// BL encodes a branch-with-link with a byte offset.
func BL(off int64) uint32 { return 0x94000000 | uint32(off>>2)&0x03FFFFFF }

// BCond encodes B.<cond> with a byte offset.
func BCond(cond uint8, off int64) uint32 {
	return 0x54000000 | (uint32(off>>2)&0x7FFFF)<<5 | uint32(cond&0xF)
}

// CBZ encodes CBZ Xt, <label>.
func CBZ(rt uint8, off int64) uint32 {
	return 0xB4000000 | (uint32(off>>2)&0x7FFFF)<<5 | reg(rt)
}

// CBNZ encodes CBNZ Xt, <label>.
func CBNZ(rt uint8, off int64) uint32 {
	return 0xB5000000 | (uint32(off>>2)&0x7FFFF)<<5 | reg(rt)
}

// BR encodes BR Xn.
func BR(rn uint8) uint32 { return 0xD61F0000 | reg(rn)<<5 }

// BLR encodes BLR Xn.
func BLR(rn uint8) uint32 { return 0xD63F0000 | reg(rn)<<5 }

// RET encodes RET Xn (conventionally X30).
func RET(rn uint8) uint32 { return 0xD65F0000 | reg(rn)<<5 }

// LDRImm encodes LDR Xt, [Xn, #off] with off a multiple of the access size.
// size is log2 of the access width in bytes (3 = 64-bit, 2 = 32-bit, 0 = byte).
func LDRImm(rt, rn uint8, off uint16, size uint8) uint32 {
	imm12 := uint32(off) >> size
	return uint32(size&3)<<30 | 0x39400000 | (imm12&0xFFF)<<10 | reg(rn)<<5 | reg(rt)
}

// STRImm encodes STR Xt, [Xn, #off].
func STRImm(rt, rn uint8, off uint16, size uint8) uint32 {
	imm12 := uint32(off) >> size
	return uint32(size&3)<<30 | 0x39000000 | (imm12&0xFFF)<<10 | reg(rn)<<5 | reg(rt)
}

// LDUR encodes LDUR Xt, [Xn, #simm9] (unscaled).
func LDUR(rt, rn uint8, simm9 int16, size uint8) uint32 {
	return uint32(size&3)<<30 | 0x38400000 | (uint32(simm9)&0x1FF)<<12 | reg(rn)<<5 | reg(rt)
}

// STUR encodes STUR Xt, [Xn, #simm9] (unscaled).
func STUR(rt, rn uint8, simm9 int16, size uint8) uint32 {
	return uint32(size&3)<<30 | 0x38000000 | (uint32(simm9)&0x1FF)<<12 | reg(rn)<<5 | reg(rt)
}

// LDTR encodes the unprivileged load LDTR Xt, [Xn, #simm9]. At EL1 it
// performs the access with EL0 permissions, ignoring PAN — which is why the
// paper's sanitizer forbids it for PAN-isolated processes (Table 3).
func LDTR(rt, rn uint8, simm9 int16, size uint8) uint32 {
	return uint32(size&3)<<30 | 0x38400800 | (uint32(simm9)&0x1FF)<<12 | reg(rn)<<5 | reg(rt)
}

// STTR encodes the unprivileged store STTR Xt, [Xn, #simm9].
func STTR(rt, rn uint8, simm9 int16, size uint8) uint32 {
	return uint32(size&3)<<30 | 0x38000800 | (uint32(simm9)&0x1FF)<<12 | reg(rn)<<5 | reg(rt)
}

// LDP encodes LDP Xt, Xt2, [Xn, #off] (64-bit signed offset, off a
// multiple of 8 in [-512, 504]).
func LDP(rt, rt2, rn uint8, off int16) uint32 {
	imm7 := uint32(off/8) & 0x7F
	return 0xA9400000 | imm7<<15 | reg(rt2)<<10 | reg(rn)<<5 | reg(rt)
}

// STP encodes STP Xt, Xt2, [Xn, #off].
func STP(rt, rt2, rn uint8, off int16) uint32 {
	imm7 := uint32(off/8) & 0x7F
	return 0xA9000000 | imm7<<15 | reg(rt2)<<10 | reg(rn)<<5 | reg(rt)
}

// LDRReg encodes LDR Xt, [Xn, Xm] (register offset, LSL #0).
func LDRReg(rt, rn, rm uint8, size uint8) uint32 {
	return uint32(size&3)<<30 | 0x38606800 | reg(rm)<<16 | reg(rn)<<5 | reg(rt)
}

// STRReg encodes STR Xt, [Xn, Xm] (register offset, LSL #0).
func STRReg(rt, rn, rm uint8, size uint8) uint32 {
	return uint32(size&3)<<30 | 0x38206800 | reg(rm)<<16 | reg(rn)<<5 | reg(rt)
}

// CSEL encodes CSEL Xd, Xn, Xm, <cond>.
func CSEL(rd, rn, rm, cond uint8) uint32 {
	return 0x9A800000 | reg(rm)<<16 | uint32(cond&0xF)<<12 | reg(rn)<<5 | reg(rd)
}

// CSINC encodes CSINC Xd, Xn, Xm, <cond> (CSET when rn == rm == XZR with
// the inverted condition).
func CSINC(rd, rn, rm, cond uint8) uint32 {
	return 0x9A800400 | reg(rm)<<16 | uint32(cond&0xF)<<12 | reg(rn)<<5 | reg(rd)
}

// SVC encodes SVC #imm16 (supervisor call).
func SVC(imm16 uint16) uint32 { return 0xD4000001 | uint32(imm16)<<5 }

// HVC encodes HVC #imm16 (hypervisor call).
func HVC(imm16 uint16) uint32 { return 0xD4000002 | uint32(imm16)<<5 }

// SMC encodes SMC #imm16 (secure monitor call; always sensitive).
func SMC(imm16 uint16) uint32 { return 0xD4000003 | uint32(imm16)<<5 }

// MSR encodes MSR <sysreg>, Xt.
func MSR(r SysReg, rt uint8) uint32 {
	e := r.Enc()
	return sysWord(0, e) | reg(rt)
}

// MRS encodes MRS Xt, <sysreg>.
func MRS(rt uint8, r SysReg) uint32 {
	e := r.Enc()
	return sysWord(1, e) | reg(rt)
}

// PSTATE field op1/op2 selectors for MSR (immediate).
const (
	PStateFieldPANOp1 = 0
	PStateFieldPANOp2 = 4 // paper Table 3: op2 == PAN
	PStateFieldSPSel1 = 0
	PStateFieldSPSel2 = 5
	PStateFieldUAOOp1 = 0
	PStateFieldUAOOp2 = 3
)

// MSRPan encodes MSR PAN, #imm — the PAN-based domain switch instruction
// (set_pan in the paper's Listing 1).
func MSRPan(imm uint8) uint32 {
	e := SysRegEnc{Op0: 0, Op1: PStateFieldPANOp1, CRn: 4, CRm: imm & 0xF, Op2: PStateFieldPANOp2}
	return sysWord(0, e) | reg(XZR)
}

// MSRPStateImm encodes a generic MSR <pstatefield>, #imm.
func MSRPStateImm(op1, op2, imm uint8) uint32 {
	e := SysRegEnc{Op0: 0, Op1: op1 & 7, CRn: 4, CRm: imm & 0xF, Op2: op2 & 7}
	return sysWord(0, e) | reg(XZR)
}

// SYSInsn encodes a SYS instruction (op0 == 0b01): the AT/DC/IC/TLBI space.
func SYSInsn(op1, crn, crm, op2, rt uint8) uint32 {
	e := SysRegEnc{Op0: 1, Op1: op1, CRn: crn, CRm: crm, Op2: op2}
	return sysWord(0, e) | reg(rt)
}

// TLBIVMALLE1 encodes TLBI VMALLE1 (CRn=8), a sensitive instruction.
func TLBIVMALLE1() uint32 { return SYSInsn(0, 8, 7, 0, XZR) }

// ATS1E1R encodes AT S1E1R, Xt (CRn=7): address translation, the op0=0b01
// CRn=7 row of Table 3.
func ATS1E1R(rt uint8) uint32 { return SYSInsn(0, 7, 8, 0, rt) }

// sysWord builds a word in the system-instruction space. l is the L bit
// (bit 21): 1 for MRS/SYSL.
func sysWord(l uint32, e SysRegEnc) uint32 {
	return 0xD5000000 | (l&1)<<21 | uint32(e.Op0&3)<<19 | uint32(e.Op1&7)<<16 |
		uint32(e.CRn&0xF)<<12 | uint32(e.CRm&0xF)<<8 | uint32(e.Op2&7)<<5
}

// sysEncOf extracts the (op0,op1,CRn,CRm,op2) fields from a word in the
// system-instruction space.
func sysEncOf(word uint32) SysRegEnc {
	return SysRegEnc{
		Op0: uint8(word >> 19 & 3),
		Op1: uint8(word >> 16 & 7),
		CRn: uint8(word >> 12 & 0xF),
		CRm: uint8(word >> 8 & 0xF),
		Op2: uint8(word >> 5 & 7),
	}
}

func checkBranchRange(off int64, bits uint) error {
	limit := int64(1) << (bits + 1) // offsets are in words, encoded /4
	if off < -limit || off >= limit || off&3 != 0 {
		return fmt.Errorf("branch offset %d out of range for %d-bit field", off, bits)
	}
	return nil
}
