package arm64

import (
	"testing"
	"testing/quick"
)

func TestDecodeRoundTripDataProcessing(t *testing.T) {
	tests := []struct {
		name string
		word uint32
		want Insn
	}{
		{"movz", MOVZ(3, 0xBEEF, 1), Insn{Op: OpMOVZ, Rd: 3, Imm: 0xBEEF, ShiftAmt: 16, SF: true}},
		{"movk", MOVK(7, 0x1234, 3), Insn{Op: OpMOVK, Rd: 7, Imm: 0x1234, ShiftAmt: 48, SF: true}},
		{"movn", MOVN(0, 1, 0), Insn{Op: OpMOVN, Rd: 0, Imm: 1, SF: true}},
		{"add imm", ADDImm(1, 2, 100, false), Insn{Op: OpAddImm, Rd: 1, Rn: 2, Imm: 100, SF: true}},
		{"add imm sh", ADDImm(1, 2, 5, true), Insn{Op: OpAddImm, Rd: 1, Rn: 2, Imm: 5 << 12, SF: true}},
		{"sub imm", SUBImm(9, 9, 16, false), Insn{Op: OpSubImm, Rd: 9, Rn: 9, Imm: 16, SF: true}},
		{"cmp imm", CMPImm(4, 7), Insn{Op: OpSubImm, Rd: XZR, Rn: 4, Imm: 7, SF: true, SetFlags: true}},
		{"add reg", ADDReg(1, 2, 3), Insn{Op: OpAddReg, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"sub reg", SUBReg(4, 5, 6), Insn{Op: OpSubReg, Rd: 4, Rn: 5, Rm: 6, SF: true}},
		{"cmp reg", CMPReg(2, 3), Insn{Op: OpSubReg, Rd: XZR, Rn: 2, Rm: 3, SF: true, SetFlags: true}},
		{"and", ANDReg(1, 2, 3), Insn{Op: OpAndReg, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"orr", ORRReg(1, 2, 3), Insn{Op: OpOrrReg, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"mov reg", MOVReg(8, 9), Insn{Op: OpOrrReg, Rd: 8, Rn: XZR, Rm: 9, SF: true}},
		{"eor", EORReg(1, 2, 3), Insn{Op: OpEorReg, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"orr shifted", ORRShifted(1, 2, 3, 12), Insn{Op: OpOrrReg, Rd: 1, Rn: 2, Rm: 3, ShiftAmt: 12, SF: true}},
		{"lslv", LSLV(1, 2, 3), Insn{Op: OpLSLV, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"lsrv", LSRV(1, 2, 3), Insn{Op: OpLSRV, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"udiv", UDIV(1, 2, 3), Insn{Op: OpUDiv, Rd: 1, Rn: 2, Rm: 3, SF: true}},
		{"mul", MUL(1, 2, 3), Insn{Op: OpMAdd, Rd: 1, Rn: 2, Rm: 3, Ra: XZR, SF: true}},
		{"madd", MADD(1, 2, 3, 4), Insn{Op: OpMAdd, Rd: 1, Rn: 2, Rm: 3, Ra: 4, SF: true}},
		{"adr fwd", ADR(5, 64), Insn{Op: OpADR, Rd: 5, Imm: 64, SF: true}},
		{"adr back", ADR(5, -8), Insn{Op: OpADR, Rd: 5, Imm: -8, SF: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.word)
			tt.want.Raw = tt.word
			if got != tt.want {
				t.Errorf("Decode(%#08x) = %+v, want %+v", tt.word, got, tt.want)
			}
		})
	}
}

func TestDecodeRoundTripBranches(t *testing.T) {
	tests := []struct {
		name string
		word uint32
		want Insn
	}{
		{"b fwd", B(0x100), Insn{Op: OpB, Imm: 0x100, SF: true}},
		{"b back", B(-0x20), Insn{Op: OpB, Imm: -0x20, SF: true}},
		{"bl", BL(0x2000), Insn{Op: OpBL, Imm: 0x2000, SF: true}},
		{"b.eq", BCond(CondEQ, 8), Insn{Op: OpBCond, Cond: CondEQ, Imm: 8, SF: true}},
		{"b.ne back", BCond(CondNE, -16), Insn{Op: OpBCond, Cond: CondNE, Imm: -16, SF: true}},
		{"cbz", CBZ(3, 24), Insn{Op: OpCBZ, Rt: 3, Imm: 24, SF: true}},
		{"cbnz", CBNZ(3, -24), Insn{Op: OpCBNZ, Rt: 3, Imm: -24, SF: true}},
		{"br", BR(17), Insn{Op: OpBR, Rn: 17, SF: true}},
		{"blr", BLR(0), Insn{Op: OpBLR, Rn: 0, SF: true}},
		{"ret", RET(30), Insn{Op: OpRET, Rn: 30, SF: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.word)
			tt.want.Raw = tt.word
			if got != tt.want {
				t.Errorf("Decode(%#08x) = %+v, want %+v", tt.word, got, tt.want)
			}
		})
	}
}

func TestDecodeRoundTripLoadStore(t *testing.T) {
	tests := []struct {
		name string
		word uint32
		want Insn
	}{
		{"ldr x", LDRImm(1, 2, 32, 3), Insn{Op: OpLdrImm, Rt: 1, Rn: 2, Imm: 32, Size: 3, SF: true}},
		{"str x", STRImm(1, 2, 32, 3), Insn{Op: OpStrImm, Rt: 1, Rn: 2, Imm: 32, Size: 3, SF: true}},
		{"ldr w", LDRImm(1, 2, 16, 2), Insn{Op: OpLdrImm, Rt: 1, Rn: 2, Imm: 16, Size: 2, SF: true}},
		{"ldrb", LDRImm(1, 2, 5, 0), Insn{Op: OpLdrImm, Rt: 1, Rn: 2, Imm: 5, Size: 0, SF: true}},
		{"strb", STRImm(1, 2, 5, 0), Insn{Op: OpStrImm, Rt: 1, Rn: 2, Imm: 5, Size: 0, SF: true}},
		{"ldur", LDUR(1, 2, -8, 3), Insn{Op: OpLdur, Rt: 1, Rn: 2, Imm: -8, Size: 3, SF: true}},
		{"stur", STUR(1, 2, 12, 3), Insn{Op: OpStur, Rt: 1, Rn: 2, Imm: 12, Size: 3, SF: true}},
		{"ldtr", LDTR(1, 2, 0, 3), Insn{Op: OpLdtr, Rt: 1, Rn: 2, Size: 3, SF: true}},
		{"sttr", STTR(1, 2, -4, 3), Insn{Op: OpSttr, Rt: 1, Rn: 2, Imm: -4, Size: 3, SF: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.word)
			tt.want.Raw = tt.word
			if got != tt.want {
				t.Errorf("Decode(%#08x) = %+v, want %+v", tt.word, got, tt.want)
			}
		})
	}
}

func TestDecodeSystemInstructions(t *testing.T) {
	t.Run("svc", func(t *testing.T) {
		in := Decode(SVC(0x42))
		if in.Op != OpSVC || in.Imm != 0x42 {
			t.Errorf("got %+v", in)
		}
	})
	t.Run("hvc", func(t *testing.T) {
		in := Decode(HVC(7))
		if in.Op != OpHVC || in.Imm != 7 {
			t.Errorf("got %+v", in)
		}
	})
	t.Run("smc", func(t *testing.T) {
		if in := Decode(SMC(0)); in.Op != OpSMC {
			t.Errorf("got %+v", in)
		}
	})
	t.Run("eret", func(t *testing.T) {
		if in := Decode(WordERET); in.Op != OpERET {
			t.Errorf("got %+v", in)
		}
	})
	t.Run("fixed words", func(t *testing.T) {
		for word, want := range map[uint32]Op{
			WordNOP: OpNOP, WordISB: OpISB, WordDSBSY: OpDSB, WordDMBSY: OpDMB,
		} {
			if in := Decode(word); in.Op != want {
				t.Errorf("Decode(%#x).Op = %v, want %v", word, in.Op, want)
			}
		}
	})
	t.Run("msr ttbr0_el1", func(t *testing.T) {
		in := Decode(MSR(TTBR0EL1, 5))
		if in.Op != OpMSRReg || in.Rt != 5 {
			t.Fatalf("got %+v", in)
		}
		if r, ok := LookupSysReg(in.Sys); !ok || r != TTBR0EL1 {
			t.Errorf("LookupSysReg = %v, %v", r, ok)
		}
	})
	t.Run("mrs esr_el1", func(t *testing.T) {
		in := Decode(MRS(9, ESREL1))
		if in.Op != OpMRS || in.Rt != 9 {
			t.Fatalf("got %+v", in)
		}
		if r, ok := LookupSysReg(in.Sys); !ok || r != ESREL1 {
			t.Errorf("LookupSysReg = %v, %v", r, ok)
		}
	})
	t.Run("msr pan imm", func(t *testing.T) {
		in := Decode(MSRPan(1))
		if in.Op != OpMSRImm || in.Imm != 1 {
			t.Fatalf("got %+v", in)
		}
		if in.Sys.Op0 != 0 || in.Sys.CRn != 4 || in.Sys.Op2 != PStateFieldPANOp2 {
			t.Errorf("PAN encoding fields wrong: %+v", in.Sys)
		}
	})
	t.Run("tlbi is sys op", func(t *testing.T) {
		in := Decode(TLBIVMALLE1())
		if in.Op != OpSYS || in.Sys.Op0 != 1 || in.Sys.CRn != 8 {
			t.Errorf("got %+v", in)
		}
	})
	t.Run("at is sys op crn7", func(t *testing.T) {
		in := Decode(ATS1E1R(3))
		if in.Op != OpSYS || in.Sys.Op0 != 1 || in.Sys.CRn != 7 {
			t.Errorf("got %+v", in)
		}
	})
}

func TestSystemSpacePredicate(t *testing.T) {
	system := []uint32{
		MSR(TTBR0EL1, 0), MRS(0, ESREL1), MSRPan(0), MSRPan(1),
		TLBIVMALLE1(), ATS1E1R(0), WordNOP, WordISB, WordDSBSY,
	}
	for _, w := range system {
		if !isSystemSpace(w) {
			t.Errorf("isSystemSpace(%#08x) = false, want true", w)
		}
	}
	nonSystem := []uint32{
		WordERET, SVC(0), HVC(0), B(4), RET(30), ADDImm(0, 0, 1, false),
		LDRImm(0, 1, 0, 3), MOVZ(0, 1, 0),
	}
	for _, w := range nonSystem {
		if isSystemSpace(w) {
			t.Errorf("isSystemSpace(%#08x) = true, want false", w)
		}
	}
}

func TestSysRegEncodingsUnique(t *testing.T) {
	seen := make(map[uint32]SysReg)
	for r := SysReg(1); r < sysRegCount; r++ {
		key := r.Enc().Key()
		if prev, dup := seen[key]; dup {
			t.Errorf("encoding collision: %v and %v share %+v", prev, r, r.Enc())
		}
		seen[key] = r
	}
}

func TestSysRegLookupRoundTrip(t *testing.T) {
	for r := SysReg(1); r < sysRegCount; r++ {
		got, ok := LookupSysReg(r.Enc())
		if !ok || got != r {
			t.Errorf("LookupSysReg(%v.Enc()) = %v, %v", r, got, ok)
		}
	}
}

func TestMSRWordsResolveToEncodedRegister(t *testing.T) {
	for r := SysReg(1); r < sysRegCount; r++ {
		in := Decode(MSR(r, 1))
		if in.Op != OpMSRReg && in.Op != OpMSRImm && in.Op != OpSYS {
			// Registers with op0 < 2 (e.g. MDSCR_EL1 via op0=2) stay MSR.
			t.Errorf("MSR(%v) decoded as %v", r, in.Op)
			continue
		}
		if in.Op == OpMSRReg {
			got, ok := LookupSysReg(in.Sys)
			if !ok || got != r {
				t.Errorf("MSR(%v) round-trip = %v, %v", r, got, ok)
			}
		}
	}
}

// Property: Decode never panics, and instructions built by the encoders
// always decode to a known op.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(word uint32) bool {
		_ = Decode(word) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// Property: MOVZ/MOVK materialization round-trips arbitrary constants when
// interpreted the way the CPU executes them.
func TestMovImm64Property(t *testing.T) {
	f := func(v uint64) bool {
		var acc uint64
		for _, w := range MovImm64(1, v) {
			in := Decode(w)
			switch in.Op {
			case OpMOVZ:
				acc = uint64(in.Imm) << in.ShiftAmt
			case OpMOVK:
				mask := uint64(0xFFFF) << in.ShiftAmt
				acc = acc&^mask | uint64(in.Imm)<<in.ShiftAmt
			default:
				return false
			}
		}
		return acc == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAsmLabelsAndFixups(t *testing.T) {
	a := NewAsm()
	a.Label("start")
	a.MovImm(0, 3)
	a.Label("loop")
	a.Emit(SUBSImm(0, 0, 1))
	a.BCond(CondNE, "loop")
	a.CBZ(1, "done")
	a.B("start")
	a.Label("done")
	a.Emit(RET(30))

	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// The BCond at index 2 must branch back one word.
	if in := Decode(words[2]); in.Op != OpBCond || in.Imm != -4 {
		t.Errorf("b.ne fixup: %+v", in)
	}
	// The CBZ at index 3 must branch forward two words to "done".
	if in := Decode(words[3]); in.Op != OpCBZ || in.Imm != 8 {
		t.Errorf("cbz fixup: %+v", in)
	}
	// The B at index 4 must branch back to index 0.
	if in := Decode(words[4]); in.Op != OpB || in.Imm != -16 {
		t.Errorf("b fixup: %+v", in)
	}
	off, err := a.Offset("done")
	if err != nil || off != 20 {
		t.Errorf("Offset(done) = %d, %v", off, err)
	}
}

func TestAsmUndefinedLabel(t *testing.T) {
	a := NewAsm()
	a.B("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("expected error for undefined label")
	}
}

func TestWordsBytesRoundTrip(t *testing.T) {
	words := []uint32{WordNOP, SVC(1), MOVZ(0, 0xABCD, 2)}
	got := BytesToWords(WordsToBytes(words))
	if len(got) != len(words) {
		t.Fatalf("length %d != %d", len(got), len(words))
	}
	for i := range words {
		if got[i] != words[i] {
			t.Errorf("word %d: %#x != %#x", i, got[i], words[i])
		}
	}
}

func TestProfileOverridesMatchTable4DirectMeasurements(t *testing.T) {
	carmel := ProfileCarmel()
	if got := carmel.SysRegWriteCost(HCREL2); got < 1550 || got > 1655 {
		t.Errorf("Carmel HCR_EL2 write = %d, want within paper band [1550, 1655]", got)
	}
	if got := carmel.SysRegWriteCost(VTTBREL2); got != 1115 {
		t.Errorf("Carmel VTTBR_EL2 write = %d, want 1115", got)
	}
	cortex := ProfileCortexA55()
	if got := cortex.SysRegWriteCost(HCREL2); got != 88 {
		t.Errorf("Cortex HCR_EL2 write = %d, want 88", got)
	}
	if got := cortex.SysRegWriteCost(VTTBREL2); got != 37 {
		t.Errorf("Cortex VTTBR_EL2 write = %d, want 37", got)
	}
}

func TestELPStateRoundTrip(t *testing.T) {
	for _, el := range []EL{EL0, EL1, EL2} {
		if got := ELFromPState(PStateForEL(el)); got != el {
			t.Errorf("ELFromPState(PStateForEL(%v)) = %v", el, got)
		}
	}
}

func TestDecodePairAndConditional(t *testing.T) {
	tests := []struct {
		name string
		word uint32
		want Insn
	}{
		{"ldp", LDP(1, 2, 3, 16), Insn{Op: OpLdp, Rt: 1, Rt2: 2, Rn: 3, Imm: 16, Size: 3, SF: true}},
		{"ldp neg", LDP(1, 2, 3, -32), Insn{Op: OpLdp, Rt: 1, Rt2: 2, Rn: 3, Imm: -32, Size: 3, SF: true}},
		{"stp", STP(4, 5, 6, 0), Insn{Op: OpStp, Rt: 4, Rt2: 5, Rn: 6, Size: 3, SF: true}},
		{"ldr reg", LDRReg(1, 2, 3, 3), Insn{Op: OpLdrReg, Rt: 1, Rn: 2, Rm: 3, Size: 3, SF: true}},
		{"str reg b", STRReg(1, 2, 3, 0), Insn{Op: OpStrReg, Rt: 1, Rn: 2, Rm: 3, Size: 0, SF: true}},
		{"csel", CSEL(1, 2, 3, CondEQ), Insn{Op: OpCSel, Rd: 1, Rn: 2, Rm: 3, Cond: CondEQ, SF: true}},
		{"csinc", CSINC(1, 2, 3, CondLT), Insn{Op: OpCSInc, Rd: 1, Rn: 2, Rm: 3, Cond: CondLT, SF: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.word)
			tt.want.Raw = tt.word
			if got != tt.want {
				t.Errorf("Decode(%#08x) = %+v, want %+v", tt.word, got, tt.want)
			}
		})
	}
}

func TestUBFMShiftForms(t *testing.T) {
	if in := Decode(LSRImm(1, 2, 4)); in.Op != OpUBFM || in.ShiftAmt != 4 || in.Imm != 63 {
		t.Errorf("lsr decode: %+v", in)
	}
	if in := Decode(LSLImm(1, 2, 8)); in.Op != OpUBFM || in.ShiftAmt != 56 || in.Imm != 55 {
		t.Errorf("lsl decode: %+v", in)
	}
}
