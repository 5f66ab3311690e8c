package arm64

// Op identifies a decoded A64 instruction form.
type Op uint8

// Decoded instruction forms. The subset covers what LightZone's call gates,
// trap stubs, sanitizer, penetration-test attack programs and demo
// applications need.
const (
	OpUnknown Op = iota

	// Data processing, immediate.
	OpMOVZ
	OpMOVK
	OpMOVN
	OpAddImm
	OpSubImm
	OpADR

	// Data processing, register.
	OpAddReg
	OpSubReg
	OpAndReg
	OpOrrReg
	OpEorReg
	OpLSLV
	OpLSRV
	OpMAdd
	OpUDiv

	// Branches.
	OpB
	OpBL
	OpBCond
	OpCBZ
	OpCBNZ
	OpBR
	OpBLR
	OpRET

	// Loads and stores.
	OpLdrImm
	OpStrImm
	OpLdur
	OpStur
	OpLdtr // unprivileged load (sensitive, paper Table 3)
	OpSttr // unprivileged store (sensitive, paper Table 3)
	OpLdp  // load pair (64-bit, signed offset)
	OpStp  // store pair
	OpLdrReg
	OpStrReg

	// Conditional select.
	OpCSel
	OpCSInc

	// Bitfield.
	OpUBFM

	// Exception generation and return.
	OpSVC
	OpHVC
	OpSMC
	OpERET

	// Hints and barriers.
	OpNOP
	OpISB
	OpDSB
	OpDMB

	// System-register and system instructions.
	OpMSRReg // MSR <sysreg>, Xt
	OpMRS    // MRS Xt, <sysreg>
	OpMSRImm // MSR <pstatefield>, #imm (op0=0b00, CRn=0b0100)
	OpSYS    // SYS (op0=0b01): cache maintenance, AT, TLBI space
	OpSYSL   // SYSL

	// NumOps bounds the Op space; Op doubles as the dense index into the
	// interpreter's per-form handler table, so a decoded Insn carries its
	// dispatch slot and never needs re-classification.
	NumOps
)

var opNames = map[Op]string{
	OpUnknown: "unknown", OpMOVZ: "movz", OpMOVK: "movk", OpMOVN: "movn",
	OpAddImm: "add(imm)", OpSubImm: "sub(imm)", OpADR: "adr",
	OpAddReg: "add(reg)", OpSubReg: "sub(reg)", OpAndReg: "and",
	OpOrrReg: "orr", OpEorReg: "eor", OpLSLV: "lslv", OpLSRV: "lsrv",
	OpMAdd: "madd", OpUDiv: "udiv",
	OpB: "b", OpBL: "bl", OpBCond: "b.cond", OpCBZ: "cbz", OpCBNZ: "cbnz",
	OpBR: "br", OpBLR: "blr", OpRET: "ret",
	OpLdrImm: "ldr", OpStrImm: "str", OpLdur: "ldur", OpStur: "stur",
	OpLdtr: "ldtr", OpSttr: "sttr", OpLdp: "ldp", OpStp: "stp",
	OpLdrReg: "ldr(reg)", OpStrReg: "str(reg)",
	OpCSel: "csel", OpCSInc: "csinc", OpUBFM: "ubfm",
	OpSVC: "svc", OpHVC: "hvc", OpSMC: "smc", OpERET: "eret",
	OpNOP: "nop", OpISB: "isb", OpDSB: "dsb", OpDMB: "dmb",
	OpMSRReg: "msr", OpMRS: "mrs", OpMSRImm: "msr(imm)",
	OpSYS: "sys", OpSYSL: "sysl",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "op?"
}

// Terminates reports whether the op ends a straight-line decoded block:
// control flow may leave the fall-through path (branches, exception
// generation and return) or architectural state affecting fetch may change
// (system-register writes, TLBI/AT, undecodable words). The decoded-block
// cache never extends a block past a terminator.
func (o Op) Terminates() bool {
	switch o {
	case OpB, OpBL, OpBCond, OpCBZ, OpCBNZ, OpBR, OpBLR, OpRET,
		OpSVC, OpHVC, OpSMC, OpERET,
		OpMSRReg, OpMRS, OpMSRImm, OpSYS, OpSYSL,
		OpUnknown:
		return true
	}
	return false
}

// isSystemSpace reports whether the instruction word lives in the A64
// system-instruction encoding space (bits 31:22 == 0b1101010100), which the
// decoder models field by field for the MSR, MRS and SYS handlers.
func isSystemSpace(word uint32) bool {
	return word>>22 == 0b1101010100
}

// Condition codes for B.cond.
const (
	CondEQ = 0x0
	CondNE = 0x1
	CondCS = 0x2
	CondCC = 0x3
	CondMI = 0x4
	CondPL = 0x5
	CondVS = 0x6
	CondVC = 0x7
	CondHI = 0x8
	CondLS = 0x9
	CondGE = 0xA
	CondLT = 0xB
	CondGT = 0xC
	CondLE = 0xD
	CondAL = 0xE
)

// XZR is the zero-register number; depending on context, register 31 is the
// zero register or the stack pointer. The subset uses it as XZR everywhere
// except load/store base registers, where it selects SP (as in real A64).
const XZR = 31

// Insn is a decoded instruction.
type Insn struct {
	Op       Op
	Rd       uint8
	Rn       uint8
	Rm       uint8
	Ra       uint8
	Rt       uint8
	Rt2      uint8
	Imm      int64 // immediate value or branch/page offset in bytes
	Cond     uint8
	Size     uint8 // load/store access size, log2 bytes (0..3)
	ShiftAmt uint8
	SetFlags bool
	SF       bool // 64-bit operation
	Sys      SysRegEnc
	Raw      uint32
}
