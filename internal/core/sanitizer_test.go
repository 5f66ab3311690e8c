package core

import (
	"testing"
	"testing/quick"

	"lightzone/internal/arm64"
)

// TestSanitizerTable3Matrix exercises every row of the paper's Table 3
// under both policies: ① (TTBR) and ② (PAN).
func TestSanitizerTable3Matrix(t *testing.T) {
	tests := []struct {
		name      string
		word      uint32
		allowTTBR bool
		allowPAN  bool
	}{
		// Exception generation and return.
		{"eret", arm64.WordERET, false, false},
		{"eretaa", 0xd69f0bff, false, false},
		{"eretab", 0xd69f0fff, false, false},
		{"smc", arm64.SMC(0), false, false},
		{"svc allowed", arm64.SVC(0), true, true},
		{"hvc allowed (api library)", arm64.HVC(HVCSyscall), true, true},

		// Unprivileged load/store: LDTR[B/SB/H/SH/SW], STTR[B/H].
		{"ldtr 64", arm64.LDTR(0, 1, 0, 3), true, false},
		{"ldtrb", arm64.LDTR(0, 1, 0, 0), true, false},
		{"ldtrh", arm64.LDTR(0, 1, 4, 1), true, false},
		{"sttr 64", arm64.STTR(0, 1, 0, 3), true, false},
		{"sttrb", arm64.STTR(0, 1, 0, 0), true, false},
		{"ldtrsb x", 0x38800822, true, false},
		{"ldtrsb w", 0x38c00822, true, false},
		{"ldtrsh x", 0x78800822, true, false},
		{"ldtrsh w", 0x78c00822, true, false},
		{"ldtrsw", 0xb8800822, true, false},

		// System: op0=0b00 && CRn=0b0100 && op2==PAN -> allowed.
		{"msr pan #0", arm64.MSRPan(0), true, true},
		{"msr pan #1", arm64.MSRPan(1), true, true},
		// op0=0b00 && CRn=0b0100 && op2 not PAN -> forbidden.
		{"msr spsel", arm64.MSRPStateImm(arm64.PStateFieldSPSel1, arm64.PStateFieldSPSel2, 1), false, false},
		{"msr uao", arm64.MSRPStateImm(arm64.PStateFieldUAOOp1, arm64.PStateFieldUAOOp2, 1), false, false},
		// op0=0b00, CRn!=4: hints and barriers are fine.
		{"nop", arm64.WordNOP, true, true},
		{"isb", arm64.WordISB, true, true},
		{"dsb", arm64.WordDSBSY, true, true},
		{"dmb", arm64.WordDMBSY, true, true},

		// op0=0b01 && CRn=7: address translation — forbidden.
		{"at s1e1r", arm64.ATS1E1R(0), false, false},
		// TLB maintenance (CRn=8): forbidden (hypervisor-trapped too).
		{"tlbi vmalle1", arm64.TLBIVMALLE1(), false, false},
		// Other SYS space: deny by default.
		{"sys crn5", arm64.SYSInsn(0, 5, 0, 0, 0), false, false},

		// op0=0b11 && CRn=4 && target NZCV/FPCR/FPSR -> allowed.
		{"mrs nzcv", arm64.MRS(0, arm64.NZCV), true, true},
		{"msr nzcv", arm64.MSR(arm64.NZCV, 0), true, true},
		{"msr fpcr", arm64.MSR(arm64.FPCR, 0), true, true},
		{"mrs fpsr", arm64.MRS(0, arm64.FPSR), true, true},
		// op0=0b11 && CRn=4 && other target -> forbidden (SP_EL0 is
		// CRn=4).
		{"msr sp_el0", arm64.MSR(arm64.SPEL0, 0), false, false},
		{"msr elr_el1", arm64.MSR(arm64.ELREL1, 0), false, false},
		{"msr spsr_el1", arm64.MSR(arm64.SPSREL1, 0), false, false},

		// op0=0b11, CRn!=4, op1==3: EL0 registers allowed.
		{"mrs tpidr_el0", arm64.MRS(0, arm64.TPIDREL0), true, true},
		{"msr tpidr_el0", arm64.MSR(arm64.TPIDREL0, 0), true, true},
		{"mrs cntvct_el0", arm64.MRS(0, arm64.CNTVCTEL0), true, true},

		// op0=0b11, CRn!=4, op1!=3, target not TTBR0 -> forbidden.
		{"msr sctlr_el1", arm64.MSR(arm64.SCTLREL1, 0), false, false},
		{"msr vbar_el1", arm64.MSR(arm64.VBAREL1, 0), false, false},
		{"msr ttbr1_el1", arm64.MSR(arm64.TTBR1EL1, 0), false, false},
		{"mrs far_el1", arm64.MRS(0, arm64.FAREL1), false, false},
		{"msr tcr_el1", arm64.MSR(arm64.TCREL1, 0), false, false},
		{"mrs midr_el1", arm64.MRS(0, arm64.MIDREL1), false, false},

		// TTBR0_EL1: only legal inside the call gate; in application
		// pages (which is what the sanitizer scans) it is forbidden
		// under both policies.
		{"msr ttbr0_el1", arm64.MSR(arm64.TTBR0EL1, 0), false, false},
		{"mrs ttbr0_el1", arm64.MRS(0, arm64.TTBR0EL1), false, false},

		// op0=0b10 (debug): deny.
		{"msr mdscr_el1", arm64.MSR(arm64.MDSCREL1, 0), false, false},

		// Plain computation and memory never trip the sanitizer.
		{"add", arm64.ADDImm(0, 1, 4, false), true, true},
		{"ldr", arm64.LDRImm(0, 1, 0, 3), true, true},
		{"str", arm64.STRImm(0, 1, 0, 3), true, true},
		{"b", arm64.B(8), true, true},
		{"br", arm64.BR(17), true, true},
		{"ret", arm64.RET(30), true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gotTTBR := CheckWord(tt.word, SanTTBR) == ""
			gotPAN := CheckWord(tt.word, SanPAN) == ""
			if gotTTBR != tt.allowTTBR {
				t.Errorf("policy ① (TTBR): allowed=%v, want %v (reason %q)",
					gotTTBR, tt.allowTTBR, CheckWord(tt.word, SanTTBR))
			}
			if gotPAN != tt.allowPAN {
				t.Errorf("policy ② (PAN): allowed=%v, want %v (reason %q)",
					gotPAN, tt.allowPAN, CheckWord(tt.word, SanPAN))
			}
		})
	}
}

// TestSanitizerEncodingClasses sweeps two Table 3 classes whole, built
// from their encoding fields rather than from the decoder: every
// unprivileged load and store (size:111:0:00:opc:0:imm9:10:Rn:Rt, 2^23
// words, allocated or not) is refused under ② and admitted under ①, and
// every exception return word (0xd69f0000 | op3:Rn:op4) is refused under
// both.
func TestSanitizerEncodingClasses(t *testing.T) {
	bad := 0
	for hi := uint32(0); hi < 1<<4; hi++ { // size:opc
		size, opc := hi>>2, hi&3
		for lo := uint32(0); lo < 1<<19; lo++ { // imm9:Rn:Rt
			word := size<<30 | 0b111<<27 | opc<<22 | lo>>10<<12 | 0b10<<10 | lo&0x3FF
			if CheckWord(word, SanPAN) == "" || CheckWord(word, SanTTBR) != "" {
				if bad++; bad <= 5 {
					t.Errorf("unprivileged load/store %#08x: pan %q, ttbr %q",
						word, CheckWord(word, SanPAN), CheckWord(word, SanTTBR))
				}
			}
		}
	}
	for low := uint32(0); low < 1<<12; low++ {
		word := 0xd69f0000 | low
		if CheckWord(word, SanPAN) == "" || CheckWord(word, SanTTBR) == "" {
			if bad++; bad <= 5 {
				t.Errorf("exception return %#08x admitted", word)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d words misclassified", bad)
	}
}

// Property: SanNone admits everything; SanPAN is at least as strict as
// SanTTBR on the system-instruction space rows that differ only by the
// unprivileged-access rule.
func TestSanitizerPolicyProperties(t *testing.T) {
	f := func(word uint32) bool {
		if CheckWord(word, SanNone) != "" {
			return false // SanNone must never flag
		}
		// Anything SanTTBR rejects, SanPAN rejects too, except nothing:
		// policy ② is a superset of ①'s rejections.
		if CheckWord(word, SanTTBR) != "" && CheckWord(word, SanPAN) == "" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30000}); err != nil {
		t.Error(err)
	}
}

func TestSanitizePageFindsFirstViolation(t *testing.T) {
	words := []uint32{
		arm64.WordNOP,
		arm64.ADDImm(0, 0, 1, false),
		arm64.TLBIVMALLE1(), // offset 8
		arm64.WordERET,      // offset 12 (not reported; first wins)
	}
	v := SanitizePage(arm64.WordsToBytes(words), SanTTBR)
	if v == nil {
		t.Fatal("no violation found")
	}
	if v.Offset != 8 {
		t.Errorf("offset = %#x, want 0x8", v.Offset)
	}
	if v.Word != arm64.TLBIVMALLE1() {
		t.Errorf("word = %#08x", v.Word)
	}
	if v.Error() == "" {
		t.Error("empty error text")
	}
}

func TestSanitizePageCleanAndEmpty(t *testing.T) {
	if v := SanitizePage(nil, SanTTBR); v != nil {
		t.Errorf("empty page flagged: %v", v)
	}
	clean := arm64.WordsToBytes([]uint32{arm64.WordNOP, arm64.RET(30)})
	if v := SanitizePage(clean, SanPAN); v != nil {
		t.Errorf("clean page flagged: %v", v)
	}
	// SanNone admits a dirty page.
	dirty := arm64.WordsToBytes([]uint32{arm64.WordERET})
	if v := SanitizePage(dirty, SanNone); v != nil {
		t.Errorf("SanNone flagged: %v", v)
	}
}

func TestSanitizeCostScalesWithSize(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	small := SanitizeCost(prof, 4096)
	large := SanitizeCost(prof, 2*1024*1024)
	if small <= 0 || large <= small {
		t.Errorf("costs: 4KB=%d 2MB=%d", small, large)
	}
}

func TestGateCodePassesItsOwnSanitizerExemption(t *testing.T) {
	// The gate contains MSR/MRS TTBR0_EL1 — sensitive by Table 3 — which
	// is exactly why gates live in the TTBR1 range outside the
	// sanitizer's reach. Verify the gate code would indeed be rejected
	// if an application shipped it (defence-in-depth sanity).
	words, err := buildGateCode(0)
	if err != nil {
		t.Fatal(err)
	}
	if v := SanitizePage(arm64.WordsToBytes(words), SanTTBR); v == nil {
		t.Error("gate code unexpectedly passes the application-page sanitizer")
	}
}

func TestStubPageSensitive(t *testing.T) {
	// The trap stub contains ERET — also only safe because it is
	// TTBR1-mapped, kernel-provided code.
	if v := SanitizePage(buildStubPage(), SanTTBR); v == nil {
		t.Error("stub page unexpectedly passes the sanitizer")
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[SanPolicy]string{
		SanNone: "none", SanTTBR: "ttbr", SanPAN: "pan",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}
