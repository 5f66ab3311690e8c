package core

import (
	"fmt"

	"lightzone/internal/arm64"
)

// SanPolicy selects the sensitive-instruction sanitization policy — the
// insn_san argument of lz_enter (Table 2), corresponding to the two columns
// of the paper's Table 3.
type SanPolicy uint8

// Sanitization policies.
const (
	// SanNone disables sanitization (insecure; for ablation only).
	SanNone SanPolicy = iota
	// SanTTBR is column ① of Table 3: the policy for processes allowed
	// to use scalable TTBR-based isolation. Unprivileged loads/stores
	// are permitted (PAN is not load-bearing); TTBR0 writes are allowed
	// only inside the TTBR1-mapped call gate, never in application pages.
	SanTTBR
	// SanPAN is column ② of Table 3: the policy for PAN-isolated
	// processes. Unprivileged loads/stores are forbidden (they bypass
	// PAN); all stage-1 register access is forbidden.
	SanPAN
	// SanOverlay is the overlay backend's policy: SanTTBR's rules, except
	// the domain switch is an untrapped POR_EL1 write in application code
	// rather than a TTBR0 write inside a call gate — so POR_EL1 access is
	// admitted and TTBR0 access stays forbidden everywhere (the backend
	// has no gates for it to be legal in).
	SanOverlay
)

func (p SanPolicy) String() string {
	switch p {
	case SanNone:
		return "none"
	case SanTTBR:
		return "ttbr"
	case SanPAN:
		return "pan"
	case SanOverlay:
		return "overlay"
	default:
		return fmt.Sprintf("san(%d)", uint8(p))
	}
}

// Violation describes a sensitive instruction found by the sanitizer.
type Violation struct {
	Offset int // byte offset within the scanned region
	Word   uint32
	Reason string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("sensitive instruction %#08x (%s) at offset %#x: %s",
		v.Word, arm64.Disassemble(v.Word), v.Offset, v.Reason)
}

// nzcvFPTargets are the op0=0b11, CRn=4 registers Table 3 exempts.
var nzcvFPTargets = map[uint32]bool{
	arm64.NZCV.Enc().Key(): true,
	arm64.FPCR.Enc().Key(): true,
	arm64.FPSR.Enc().Key(): true,
}

var (
	ttbr0Key  = arm64.TTBR0EL1.Enc().Key()
	porEL1Key = arm64.POREL1.Enc().Key()
)

// CheckWord classifies one instruction word under a policy. It returns a
// non-empty reason string when the word is sensitive and must not appear in
// application executable pages. The rules implement the paper's Table 3;
// instruction forms the table leaves unspecified default to deny (an
// unrecognized system-space word cannot be proven harmless).
func CheckWord(word uint32, policy SanPolicy) string {
	if policy == SanNone {
		return ""
	}

	// The next two classes are decided by encoding, not through the
	// decoder, which models only some of their members.
	//
	// Exception return (ERET, ERETAA, ERETAB and the unallocated words
	// beside them) is forbidden under both policies (Table 3 row 1).
	if word&0xFFFFF000 == 0xD69F0000 {
		return "eret"
	}
	// Unprivileged load/store at every size and opc (LDTR[B/H],
	// LDTRS[B/H/W], STTR[B/H] and the unallocated words among them):
	// allowed under ①, forbidden under ② (they perform EL0-permission
	// accesses, bypassing PAN).
	if word&0x3F200C00 == 0x38000800 {
		if policy == SanPAN {
			return "unprivileged load/store bypasses PAN"
		}
		return ""
	}
	// SMC would escape to firmware; HCR_EL2.TSC traps it, but the
	// sanitizer rejects it outright as defence in depth.
	if arm64.Decode(word).Op == arm64.OpSMC {
		return "smc"
	}

	if !arm64.IsSystemSpace(word) {
		return ""
	}
	enc := arm64.SysEncOf(word)
	key := enc.Key()
	switch enc.Op0 {
	case 0:
		if enc.CRn != 4 {
			return "" // hint/barrier space (NOP, ISB, DSB, DMB)
		}
		// MSR (immediate): only the PAN field is permitted
		// (op2 != NZCV && op2 != PAN -> forbidden; NZCV has no
		// MSR-immediate form, so only PAN survives).
		if enc.Op2 == arm64.PStateFieldPANOp2 && enc.Op1 == arm64.PStateFieldPANOp1 {
			return ""
		}
		return "msr-immediate to non-PAN pstate field"
	case 1:
		// SYS/SYSL space. Table 3 forbids CRn=7 (address translation);
		// CRn=8 (TLB maintenance) is hypervisor-trapped but rejected
		// here too; everything else is deny-by-default.
		switch enc.CRn {
		case 7:
			return "address-translation/cache op (op0=01, CRn=7)"
		case 8:
			return "tlb maintenance"
		default:
			return "unclassified sys op"
		}
	case 2:
		return "debug-register access"
	case 3:
		if enc.CRn == 4 {
			if nzcvFPTargets[key] {
				return ""
			}
			return "system access to non-NZCV/FPCR/FPSR CRn=4 register"
		}
		if enc.Op1 == 3 {
			return "" // EL0-accessible registers (TPIDR_EL0, counters)
		}
		if key == ttbr0Key {
			// TTBR0_EL1: permitted only inside the call gate, which
			// is TTBR1-mapped and never passes through the
			// sanitizer. In application pages it is forbidden under
			// both policies.
			return "ttbr0 access outside call gate"
		}
		if key == porEL1Key && policy == SanOverlay {
			// POR_EL1 is the overlay backend's domain-switch register;
			// SanOverlay admits it in application code (the switch is
			// deliberately untrapped). Every other policy keeps the
			// generic deny below.
			return ""
		}
		return "privileged system-register access"
	}
	return "unclassified system instruction"
}

// sanitize scans data's instruction words under the policy, collecting up
// to max violations (max < 0 collects all).
func sanitize(data []byte, policy SanPolicy, max int) []Violation {
	var found []Violation
	words := arm64.BytesToWords(data)
	for i, w := range words {
		if reason := CheckWord(w, policy); reason != "" {
			found = append(found, Violation{Offset: i * arm64.InsnBytes, Word: w, Reason: reason})
			if max >= 0 && len(found) >= max {
				break
			}
		}
	}
	return found
}

// SanitizePage scans a page's instruction words under the policy. It
// returns the first violation found, or nil. This is the check LightZone
// runs on every executable page before making it executable, under W xor X
// and break-before-make so a sanitized page cannot be modified afterwards
// (TOCTTOU defence, §6.3). The runtime only needs a yes/no answer, so it
// stops at the first hit; auditors wanting the full list use SanitizeAll.
func SanitizePage(data []byte, policy SanPolicy) *Violation {
	if found := sanitize(data, policy, 1); len(found) > 0 {
		return &found[0]
	}
	return nil
}

// SanitizeAll scans a region and returns every violation, in address order.
// The static verifier uses it so a single audit reports complete findings
// instead of the runtime's first-hit short-circuit.
func SanitizeAll(data []byte, policy SanPolicy) []Violation {
	return sanitize(data, policy, -1)
}

// SanitizeCost returns the modelled cycle cost of scanning n bytes
// (sequential read + classify per word).
func SanitizeCost(prof *arm64.Profile, n int) int64 {
	words := int64(n / arm64.InsnBytes)
	return words * (prof.InsnCost*2 + prof.MemAccessCost/2)
}
