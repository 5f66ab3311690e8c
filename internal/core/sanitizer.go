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

// rule is one row of Table 3 as a bit pattern: it matches the words w with
// w&mask == value and refuses them under the policies set in refuse.
type rule struct {
	mask, value uint32
	refuse      uint8 // bit p set: refused under SanPolicy p
	reason      string
}

const (
	refuseAll = 1<<SanTTBR | 1<<SanPAN | 1<<SanOverlay
	free      = -1 // a sysRule field that matches any value
)

// sysRule is the row for the system-instruction words (bits 31:22 ==
// 0b1101010100) whose op0, op1, CRn, CRm and op2 fields hold the given
// values. Free fields, L (bit 21) and Rt match anything.
func sysRule(op0, op1, crn, crm, op2 int, refuse uint8, reason string) rule {
	r := rule{mask: 0xFFD80000, value: 0xD5000000 | uint32(op0)<<19, refuse: refuse, reason: reason}
	for _, f := range [...]struct{ v, shift, width int }{{op1, 16, 3}, {crn, 12, 4}, {crm, 8, 4}, {op2, 5, 3}} {
		if f.v != free {
			r.mask |= uint32(1<<f.width-1) << f.shift
			r.value |= uint32(f.v) << f.shift
		}
	}
	return r
}

// table3 is the paper's Table 3, walked in order: the first row that
// matches a word decides it. System-space forms the paper leaves
// unspecified are denied: they cannot be proven harmless.
var table3 = [...]rule{
	// Exception return (ERET, ERETAA, ERETAB and the unallocated words
	// beside them) is forbidden under every policy (Table 3 row 1).
	{0xFFFFF000, 0xD69F0000, refuseAll, "eret"},
	// Unprivileged load/store at every size and opc: allowed under ①,
	// forbidden under ② (EL0-permission accesses bypass PAN).
	{0x3F200C00, 0x38000800, 1 << SanPAN, "unprivileged load/store bypasses PAN"},
	// SMC would escape to firmware; HCR_EL2.TSC traps it, but the
	// sanitizer rejects it outright as defence in depth.
	{0xFFE0001F, 0xD4000003, refuseAll, "smc"},
	// op0=0: MSR (immediate) may set only PAN (NZCV has no immediate
	// form); the rest is hint/barrier space (NOP, ISB, DSB, DMB).
	sysRule(0, arm64.PStateFieldPANOp1, 4, free, arm64.PStateFieldPANOp2, 0, ""),
	sysRule(0, free, 4, free, free, refuseAll, "msr-immediate to non-PAN pstate field"),
	sysRule(0, free, free, free, free, 0, ""),
	// op0=1: SYS/SYSL. Table 3 forbids CRn=7 (address translation); CRn=8
	// (TLB maintenance) is hypervisor-trapped but rejected too; the rest
	// is deny-by-default.
	sysRule(1, free, 7, free, free, refuseAll, "address-translation/cache op (op0=01, CRn=7)"),
	sysRule(1, free, 8, free, free, refuseAll, "tlb maintenance"),
	sysRule(1, free, free, free, free, refuseAll, "unclassified sys op"),
	// op0=2: debug registers.
	sysRule(2, free, free, free, free, refuseAll, "debug-register access"),
	// op0=3, CRn=4: only NZCV, FPCR and FPSR.
	sysRule(3, 3, 4, 2, 0, 0, ""), // NZCV
	sysRule(3, 3, 4, 4, 0, 0, ""), // FPCR
	sysRule(3, 3, 4, 4, 1, 0, ""), // FPSR
	sysRule(3, free, 4, free, free, refuseAll, "system access to non-NZCV/FPCR/FPSR CRn=4 register"),
	// op0=3, op1=3: EL0-accessible registers (TPIDR_EL0, counters).
	sysRule(3, 3, free, free, free, 0, ""),
	// TTBR0_EL1 is legal only inside the TTBR1-mapped call gate, which
	// the sanitizer never scans; in application pages it is forbidden.
	sysRule(3, 0, 2, 0, 0, refuseAll, "ttbr0 access outside call gate"),
	// POR_EL1 is the overlay backend's untrapped domain switch: only
	// SanOverlay admits it in application code.
	sysRule(3, 0, 10, 2, 4, 1<<SanTTBR|1<<SanPAN, "privileged system-register access"),
	sysRule(3, free, free, free, free, refuseAll, "privileged system-register access"),
	{0, 0, 0, ""}, // every other word is admitted: this row matches all
}

// table3Row returns the index of the first table3 row that matches word.
func table3Row(word uint32) int {
	i := 0
	for word&table3[i].mask != table3[i].value {
		i++
	}
	return i
}

// verdict is the row's reason for refusing a word under p, or "" when the
// row admits it.
func (r *rule) verdict(p SanPolicy) string {
	if r.refuse>>p&1 == 0 {
		return ""
	}
	return r.reason
}

// CheckWord classifies one instruction word under a policy, which must be
// one of the four defined ones (lz_enter refuses any other). It returns a
// non-empty reason when the word is sensitive and must not appear in
// application executable pages.
func CheckWord(word uint32, policy SanPolicy) string {
	if policy == SanNone {
		return ""
	}
	return table3[table3Row(word)].verdict(policy)
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
