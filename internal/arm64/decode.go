package arm64

func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Decode decodes a 32-bit instruction word into the modelled subset.
// Words outside the subset decode to OpUnknown, and the CPU raises an
// undefined instruction exception. The sanitizer does not decode: it
// matches Table 3's bit patterns itself (core.CheckWord).
func Decode(word uint32) Insn {
	in := Insn{Raw: word, SF: true}

	switch word {
	case WordNOP:
		in.Op = OpNOP
		return in
	case WordISB:
		in.Op = OpISB
		return in
	case WordDSBSY:
		in.Op = OpDSB
		return in
	case WordDMBSY:
		in.Op = OpDMB
		return in
	case WordERET:
		in.Op = OpERET
		return in
	}

	if isSystemSpace(word) {
		return decodeSystem(word, in)
	}

	switch {
	case word>>24 == 0xD4: // exception generation
		return decodeExcGen(word, in)
	case word>>25&0x7F == 0b1101011: // unconditional branch (register)
		return decodeBranchReg(word, in)
	case word>>26&0x1F == 0b00101: // B / BL
		in.Imm = signExtend(uint64(word&0x03FFFFFF), 26) * 4
		if word>>31 == 1 {
			in.Op = OpBL
		} else {
			in.Op = OpB
		}
		return in
	case word>>24 == 0x54: // B.cond
		if word>>4&1 == 1 {
			break // o0=1 (BC.cond / undefined space) not modelled
		}
		in.Op = OpBCond
		in.Cond = uint8(word & 0xF)
		in.Imm = signExtend(uint64(word>>5&0x7FFFF), 19) * 4
		return in
	case word>>25&0x3F == 0b011010: // CBZ / CBNZ
		if word>>31 == 0 {
			break // 32-bit compare not modelled; the interpreter is 64-bit only
		}
		if word>>24&1 == 1 {
			in.Op = OpCBNZ
		} else {
			in.Op = OpCBZ
		}
		in.Rt = uint8(word & 0x1F)
		in.Imm = signExtend(uint64(word>>5&0x7FFFF), 19) * 4
		return in
	case word>>23&0x3F == 0b100101: // move wide
		return decodeMoveWide(word, in)
	case word>>22&0x3FF == 0b1101001101: // UBFM (64-bit, N=1)
		in.Op = OpUBFM
		in.Rd = uint8(word & 0x1F)
		in.Rn = uint8(word >> 5 & 0x1F)
		in.ShiftAmt = uint8(word >> 16 & 0x3F) // immr
		in.Imm = int64(word >> 10 & 0x3F)      // imms
		return in
	case word>>23&0x3F == 0b100010: // add/sub immediate
		return decodeAddSubImm(word, in)
	case word>>24&0x1F == 0b10000: // ADR (op bit 31 == 0)
		if word>>31 == 0 {
			in.Op = OpADR
			in.Rd = uint8(word & 0x1F)
			imm := uint64(word>>5&0x7FFFF)<<2 | uint64(word>>29&3)
			in.Imm = signExtend(imm, 21)
			return in
		}
	case word>>24&0x1F == 0b01011 && word>>21&1 == 0: // add/sub shifted reg
		return decodeAddSubReg(word, in)
	case word>>24&0x1F == 0b01010 && word>>21&1 == 0: // logical shifted reg
		return decodeLogicalReg(word, in)
	case word>>23&0x7F == 0b1010010: // load/store pair, 64-bit signed offset
		if word>>30 != 0b10 {
			break // 32-bit LDP/STP and LDPSW not modelled
		}
		in.Rt = uint8(word & 0x1F)
		in.Rn = uint8(word >> 5 & 0x1F)
		in.Rt2 = uint8(word >> 10 & 0x1F)
		in.Imm = signExtend(uint64(word>>15&0x7F), 7) * 8
		in.Size = 3
		if word>>22&1 == 1 {
			in.Op = OpLdp
		} else {
			in.Op = OpStp
		}
		return in
	case word>>21&0xFF == 0b11010100 && word>>10&3 == 0: // conditional select
		if word>>29 != 0b100 {
			break // only 64-bit CSEL; CSINV/CSNEG/CCMP space not modelled
		}
		in.Rd = uint8(word & 0x1F)
		in.Rn = uint8(word >> 5 & 0x1F)
		in.Rm = uint8(word >> 16 & 0x1F)
		in.Cond = uint8(word >> 12 & 0xF)
		in.Op = OpCSel
		return in
	case word>>21&0xFF == 0b11010100 && word>>10&3 == 1: // csinc
		if word>>29 != 0b100 {
			break
		}
		in.Rd = uint8(word & 0x1F)
		in.Rn = uint8(word >> 5 & 0x1F)
		in.Rm = uint8(word >> 16 & 0x1F)
		in.Cond = uint8(word >> 12 & 0xF)
		in.Op = OpCSInc
		return in
	case word>>21&0xFF == 0b11010110: // 2-source data processing
		return decodeTwoSource(word, in)
	case word>>24&0x1F == 0b11011: // 3-source data processing
		return decodeThreeSource(word, in)
	case word>>27&7 == 0b111 && word>>26&1 == 0: // loads/stores
		return decodeLoadStore(word, in)
	}

	in.Op = OpUnknown
	return in
}

func decodeSystem(word uint32, in Insn) Insn {
	enc := sysEncOf(word)
	in.Sys = enc
	in.Rt = uint8(word & 0x1F)
	l := word >> 21 & 1
	switch enc.Op0 {
	case 0:
		// MSR (immediate) or unmatched hint/barrier space. The immediate
		// form fixes Rt to 0b11111; other Rt values are undefined.
		if l == 0 && enc.CRn == 4 && in.Rt == 31 {
			in.Op = OpMSRImm
			in.Imm = int64(enc.CRm)
			return in
		}
	case 1:
		if l == 1 {
			in.Op = OpSYSL
		} else {
			in.Op = OpSYS
		}
		return in
	case 2, 3:
		if l == 1 {
			in.Op = OpMRS
		} else {
			in.Op = OpMSRReg
		}
		return in
	}
	in.Op = OpUnknown
	return in
}

func decodeExcGen(word uint32, in Insn) Insn {
	if word>>21&7 != 0 {
		in.Op = OpUnknown
		return in
	}
	in.Imm = int64(word >> 5 & 0xFFFF)
	switch word & 0x1F {
	case 0x01:
		in.Op = OpSVC
	case 0x02:
		in.Op = OpHVC
	case 0x03:
		in.Op = OpSMC
	default:
		in.Op = OpUnknown
	}
	return in
}

func decodeBranchReg(word uint32, in Insn) Insn {
	// op2 (20:16) must be 0b11111, op3 (15:10) and op4 (4:0) must be zero;
	// anything else in the space is an unmodelled (or undefined) encoding.
	if word>>16&0x1F != 0x1F || word>>10&0x3F != 0 || word&0x1F != 0 {
		in.Op = OpUnknown
		return in
	}
	in.Rn = uint8(word >> 5 & 0x1F)
	switch word >> 21 & 0xF {
	case 0b0000:
		in.Op = OpBR
	case 0b0001:
		in.Op = OpBLR
	case 0b0010:
		in.Op = OpRET
	default:
		in.Op = OpUnknown
	}
	return in
}

func decodeMoveWide(word uint32, in Insn) Insn {
	if word>>31 == 0 {
		in.Op = OpUnknown // 32-bit move wide not modelled
		return in
	}
	in.Rd = uint8(word & 0x1F)
	in.Imm = int64(word >> 5 & 0xFFFF)
	in.ShiftAmt = uint8(word>>21&3) * 16
	switch word >> 29 & 3 {
	case 0b00:
		in.Op = OpMOVN
	case 0b10:
		in.Op = OpMOVZ
	case 0b11:
		in.Op = OpMOVK
	default:
		in.Op = OpUnknown
	}
	return in
}

func decodeAddSubImm(word uint32, in Insn) Insn {
	if word>>31 == 0 {
		in.Op = OpUnknown // 32-bit add/sub not modelled
		return in
	}
	in.Rd = uint8(word & 0x1F)
	in.Rn = uint8(word >> 5 & 0x1F)
	in.Imm = int64(word >> 10 & 0xFFF)
	if word>>22&1 == 1 {
		in.Imm <<= 12
	}
	in.SetFlags = word>>29&1 == 1
	if word>>30&1 == 1 {
		in.Op = OpSubImm
	} else {
		in.Op = OpAddImm
	}
	return in
}

func decodeAddSubReg(word uint32, in Insn) Insn {
	if word>>31 == 0 || word>>22&3 != 0 {
		in.Op = OpUnknown // only 64-bit, LSL-shifted forms are modelled
		return in
	}
	in.Rd = uint8(word & 0x1F)
	in.Rn = uint8(word >> 5 & 0x1F)
	in.Rm = uint8(word >> 16 & 0x1F)
	in.ShiftAmt = uint8(word >> 10 & 0x3F)
	in.SetFlags = word>>29&1 == 1
	if word>>30&1 == 1 {
		in.Op = OpSubReg
	} else {
		in.Op = OpAddReg
	}
	return in
}

func decodeLogicalReg(word uint32, in Insn) Insn {
	if word>>31 == 0 || word>>22&3 != 0 {
		in.Op = OpUnknown // only 64-bit, LSL-shifted forms are modelled
		return in
	}
	in.Rd = uint8(word & 0x1F)
	in.Rn = uint8(word >> 5 & 0x1F)
	in.Rm = uint8(word >> 16 & 0x1F)
	in.ShiftAmt = uint8(word >> 10 & 0x3F)
	switch word >> 29 & 3 {
	case 0b00:
		in.Op = OpAndReg
	case 0b01:
		in.Op = OpOrrReg
	case 0b10:
		in.Op = OpEorReg
	case 0b11:
		in.Op = OpAndReg
		in.SetFlags = true
	}
	return in
}

func decodeTwoSource(word uint32, in Insn) Insn {
	if word>>29 != 0b100 {
		in.Op = OpUnknown // 64-bit UDIV/LSLV/LSRV only; S must be clear
		return in
	}
	in.Rd = uint8(word & 0x1F)
	in.Rn = uint8(word >> 5 & 0x1F)
	in.Rm = uint8(word >> 16 & 0x1F)
	switch word >> 10 & 0x3F {
	case 0b000010:
		in.Op = OpUDiv
	case 0b001000:
		in.Op = OpLSLV
	case 0b001001:
		in.Op = OpLSRV
	default:
		in.Op = OpUnknown
	}
	return in
}

func decodeThreeSource(word uint32, in Insn) Insn {
	if word>>31 == 0 || word>>29&3 != 0 || word>>21&7 != 0 || word>>15&1 != 0 {
		in.Op = OpUnknown // 64-bit MADD only
		return in
	}
	in.Op = OpMAdd
	in.Rd = uint8(word & 0x1F)
	in.Rn = uint8(word >> 5 & 0x1F)
	in.Rm = uint8(word >> 16 & 0x1F)
	in.Ra = uint8(word >> 10 & 0x1F)
	return in
}

func decodeLoadStore(word uint32, in Insn) Insn {
	if word>>23&1 == 1 {
		in.Op = OpUnknown // opc=1x: sign-extending loads / PRFM not modelled
		return in
	}
	in.Size = uint8(word >> 30 & 3)
	in.Rt = uint8(word & 0x1F)
	in.Rn = uint8(word >> 5 & 0x1F)
	isLoad := word>>22&1 == 1
	switch word >> 24 & 3 {
	case 0b01: // unsigned immediate, scaled
		in.Imm = int64(word>>10&0xFFF) << in.Size
		if isLoad {
			in.Op = OpLdrImm
		} else {
			in.Op = OpStrImm
		}
		return in
	case 0b00:
		if word>>21&1 != 0 {
			// Register-offset form: option must be LSL (0b011), S=0.
			if word>>13&7 == 0b011 && word>>10&3 == 0b10 && word>>12&1 == 0 {
				in.Rm = uint8(word >> 16 & 0x1F)
				if isLoad {
					in.Op = OpLdrReg
				} else {
					in.Op = OpStrReg
				}
				return in
			}
			in.Op = OpUnknown
			return in
		}
		in.Imm = signExtend(uint64(word>>12&0x1FF), 9)
		switch word >> 10 & 3 {
		case 0b00:
			if isLoad {
				in.Op = OpLdur
			} else {
				in.Op = OpStur
			}
		case 0b10:
			if isLoad {
				in.Op = OpLdtr
			} else {
				in.Op = OpSttr
			}
		default:
			in.Op = OpUnknown // pre/post-index not modelled
		}
		return in
	}
	in.Op = OpUnknown
	return in
}
