// Micro-TLBs: host-side last-translation fastpaths in front of Translate.
//
// This file owns every micro-TLB field and all code that reads or writes
// them — tools/lint rejects `.mtlb` selectors anywhere else in package cpu,
// the same way `.Cycles` writes are confined to Charge/ChargeInsns. The
// confinement is what makes the generation-counter argument auditable: the
// gates below are provably the only way a fastpath hit can be taken.
//
// The identity argument (DESIGN.md §8): a micro-TLB entry is a memoised
// successful Translate. A hit is taken only when every input of that
// Translate is provably unchanged:
//
//   - TLB generation equal  ⇒ the real TLB's entry set has not mutated, so
//     the entry that satisfied Lookup at fill time is still cached and
//     Lookup would hit again (Lookup has no side effects on the entry set).
//   - Code-epoch generation equal ⇒ no code-invalidation chokepoint
//     (W^X flip, lz_prot, break-before-make, emulated store to a code page)
//     fired; conservative for the D-side but keeps one shared rule.
//   - (VMID, ASID, SCTLR.M, priv, PAN) equal ⇒ TTBR selection and the
//     CheckStage1/CheckStage2 permission verdicts — pure functions of the
//     cached descriptors and this context — are unchanged, so the check
//     that passed at fill time still passes.
//
// Under those gates the elided slow path would charge zero cycles (TLB hits
// are free), fault never, and count exactly one TLB hit — which the
// fastpath mirrors via TLB.NoteFastHit. Unprivileged (LDTR/STTR) accesses
// never take the fastpath: their permission verdict uses the unpriv
// override, so they always run the full Translate.
package cpu

import (
	"sync/atomic"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// microEntry caches one page's completed translation per access side.
type microEntry struct {
	page    uint64 // full VA >> PageShift (canonical bits included)
	paBase  mem.PA // PA of the 4KB page holding va
	tlbGen  uint64 // TLB.Gen() at fill
	codeGen uint64 // CodeEpochs.Gen() at fill
	vmid    uint16
	asid    uint16
	priv    bool // EL != EL0 at fill
	pan     bool // PSTATE.PAN at fill
	// Per-access permission proof: the slow path passed CheckStage1/2 for
	// this access type under the gated context. Bits accumulate as further
	// access types succeed on the same (page, generation, context).
	okR, okW, okX bool
	valid         bool
}

// Micro-TLB geometry: direct-mapped arrays. The I side covers the handful
// of code pages alternating across a domain switch (user code, kernel
// vectors, gate trampolines) and hits 99.7% of fetches at 8 ways. The D
// side covers the interleaved stack/heap/global data pages of every
// resident domain, so its working set grows with the domain count: on a
// 10,000-switch 128-domain TTBR cell it hits 0.69 at 16 ways, 0.77 at 64,
// 0.91 at 256, 0.96 at 512 and 0.97 at 1,024. 512 ways keep the array at
// 24 KiB and pointer-free, so the GC skips its words. Must be powers of two.
const (
	iMicroWays = 8
	dMicroWays = 512
)

// microIdx picks the way for a page under a translation context. Page-number
// bits from bit 4, 12 and 18 up are folded in because natural mapping bases
// (0x10000000 and 0x50000000 differ only in page bit 18) and per-domain
// regions at a 64 KiB stride agree in their low page bits and would
// otherwise collide in a few ways; priv flips the low index bit so the EL0
// and EL1 translations of one page occupy different ways. The ASID is
// folded in for the same reason at domain granularity: a call-gate switch
// retags TTBR0, and without the fold the same stack/heap page of every
// resident domain — up to 128 of them in Table 5 — would compete for one
// way on every crossing, precisely the access pattern of a gate-heavy
// workload. Against a single fold at bit 6, at 512 D-side ways, these
// folds lift the D-side hit rate of the one-domain PAN cell from 0.959
// (0.590 under a guest) to 0.9999, and of the 128-domain TTBR cell from
// 0.943 to 0.956; I-side hit rates move by less than 0.001.
func microIdx(page uint64, priv bool, asid uint16, ways uint64) uint64 {
	h := page ^ page>>4 ^ page>>12 ^ page>>18 ^ uint64(asid) ^ uint64(asid)>>4
	if priv {
		h ^= 1
	}
	return h & (ways - 1)
}

// microTLBs is the per-vCPU fastpath state: direct-mapped I-side and D-side
// translation memos, sized for the data pages of every resident domain (see
// dMicroWays), plus host-side hit/miss observability. With enabled off,
// every access runs the full Translate.
type microTLBs struct {
	enabled bool
	i       [iMicroWays]microEntry
	d       [dMicroWays]microEntry
	iHits   uint64
	iMisses uint64
	dHits   uint64
	dMisses uint64
}

// hostFastpathDefault seeds mtlb.enabled for newly created vCPUs, so tools
// (lzbench -interp, bench's oracle) can configure machines booted deep
// inside sweeps.
var hostFastpathDefault atomic.Bool

func init() { hostFastpathDefault.Store(true) }

// SetHostFastpathDefault sets whether new vCPUs start with the micro-TLBs
// enabled.
func SetHostFastpathDefault(on bool) { hostFastpathDefault.Store(on) }

// HostFastpathDefault reports the current default for new vCPUs.
func HostFastpathDefault() bool { return hostFastpathDefault.Load() }

// SetHostFastpaths enables or disables this vCPU's micro-TLBs. Every
// micro-TLB entry is dropped either way, so the toggle is safe between Run
// calls and "off" runs the full Translate on every access.
func (c *VCPU) SetHostFastpaths(on bool) {
	c.mtlb.enabled = on
	c.mtlb.i = [iMicroWays]microEntry{}
	c.mtlb.d = [dMicroWays]microEntry{}
}

// HostFastpathsEnabled reports whether this vCPU uses the micro-TLBs.
func (c *VCPU) HostFastpathsEnabled() bool { return c.mtlb.enabled }

// FlushMicroTLBs drops every memoised micro-TLB entry without changing the
// enabled state. Host-side only: the next access per page re-runs the full
// Translate (which mirrors its TLB hit into the same Stats counters), so
// emulated cycles, stats and architectural state are bit-identical — the
// chaos engine fires this mid-run to prove it.
func (c *VCPU) FlushMicroTLBs() {
	c.mtlb.i = [iMicroWays]microEntry{}
	c.mtlb.d = [dMicroWays]microEntry{}
}

// microLookup is the fastpath tried at the top of Translate. It returns the
// translated PA and true only when the gates prove the slow path would hit
// the TLB, pass all permission checks, and charge nothing.
func (c *VCPU) microLookup(va mem.VA, acc mem.AccessType, unpriv bool) (mem.PA, bool) {
	m := &c.mtlb
	if !m.enabled {
		return 0, false
	}
	if unpriv {
		m.dMisses++
		return 0, false
	}
	page := uint64(va) >> mem.PageShift
	priv := c.EL() != arm64.EL0
	ttbr := c.sys[arm64.TTBR0EL1]
	if mem.IsTTBR1(va) {
		ttbr = c.sys[arm64.TTBR1EL1]
	}
	asid := TTBRASID(ttbr)
	var e *microEntry
	if acc == mem.AccessExec {
		e = &m.i[microIdx(page, priv, asid, iMicroWays)]
	} else {
		e = &m.d[microIdx(page, priv, asid, dMicroWays)]
	}
	ok := e.valid && e.page == page
	if ok {
		switch acc {
		case mem.AccessRead:
			ok = e.okR
		case mem.AccessWrite:
			ok = e.okW
		default:
			ok = e.okX
		}
	}
	if ok && (e.tlbGen != c.TLB.Gen() || e.codeGen != c.TLB.Code.Gen()) {
		e.valid = false
		ok = false
	}
	if ok {
		ok = c.sys[arm64.SCTLREL1]&SCTLRM != 0 &&
			e.priv == priv &&
			e.pan == c.PAN() &&
			e.vmid == c.CurrentVMID()
	}
	// Colliding ASIDs can still share a way; the tag check keeps the hit
	// honest — the index fold only decides who gets evicted, never what a
	// hit proves.
	if ok {
		ok = e.asid == asid
	}
	if !ok {
		if acc == mem.AccessExec {
			m.iMisses++
		} else {
			m.dMisses++
		}
		return 0, false
	}
	if acc == mem.AccessExec {
		m.iHits++
	} else {
		m.dHits++
	}
	c.TLB.NoteFastHit()
	return e.paBase + mem.PA(uint64(va)&mem.PageMask), true
}

// microFill memoises a successful MMU-on Translate for va. pa is the full
// translated address; the 4KB page base is cached so any offset within the
// page reuses the entry. Called only from Translate's two success paths
// (TLB hit, walk + Insert), after all checks passed and — on the walk path —
// after the Insert that makes the entry visible to Lookup.
func (c *VCPU) microFill(va mem.VA, acc mem.AccessType, unpriv bool, pa mem.PA) {
	m := &c.mtlb
	if !m.enabled || unpriv {
		return
	}
	page := uint64(va) >> mem.PageShift
	priv := c.EL() != arm64.EL0
	ttbr := c.sys[arm64.TTBR0EL1]
	if mem.IsTTBR1(va) {
		ttbr = c.sys[arm64.TTBR1EL1]
	}
	asid := TTBRASID(ttbr)
	var e *microEntry
	if acc == mem.AccessExec {
		e = &m.i[microIdx(page, priv, asid, iMicroWays)]
	} else {
		e = &m.d[microIdx(page, priv, asid, dMicroWays)]
	}
	tlbGen := c.TLB.Gen()
	codeGen := c.TLB.Code.Gen()
	pan := c.PAN()
	vmid := c.CurrentVMID()
	if !(e.valid && e.page == page && e.tlbGen == tlbGen && e.codeGen == codeGen &&
		e.vmid == vmid && e.asid == asid && e.priv == priv && e.pan == pan) {
		*e = microEntry{
			page:    page,
			paBase:  pa - mem.PA(uint64(va)&mem.PageMask),
			tlbGen:  tlbGen,
			codeGen: codeGen,
			vmid:    vmid,
			asid:    asid,
			priv:    priv,
			pan:     pan,
			valid:   true,
		}
	}
	switch acc {
	case mem.AccessRead:
		e.okR = true
	case mem.AccessWrite:
		e.okW = true
	default:
		e.okX = true
	}
}

// MicroTLBEntry is the observation-only snapshot of one micro-TLB side,
// exposed for the verify cache-coherence checker and tests.
type MicroTLBEntry struct {
	Side    string // "I" or "D"
	Valid   bool
	Page    uint64
	PABase  mem.PA
	TLBGen  uint64
	CodeGen uint64
	VMID    uint16
	ASID    uint16
	Priv    bool
	PAN     bool
	OkR     bool
	OkW     bool
	OkX     bool
}

// MicroTLBSnapshot returns every valid micro-TLB entry (the I-side ways,
// then the D-side ways, each in index order) without touching any counter or
// generation. Invalid ways carry nothing and are left out: the verifier
// snapshots every machine it audits, and most of the 512 D-side ways of a
// short-lived machine are never filled.
func (c *VCPU) MicroTLBSnapshot() []MicroTLBEntry {
	var out []MicroTLBEntry
	add := func(side string, ways []microEntry) {
		for w := range ways {
			if e := &ways[w]; e.valid {
				out = append(out, MicroTLBEntry{
					Side: side, Valid: true, Page: e.page, PABase: e.paBase,
					TLBGen: e.tlbGen, CodeGen: e.codeGen, VMID: e.vmid, ASID: e.asid,
					Priv: e.priv, PAN: e.pan, OkR: e.okR, OkW: e.okW, OkX: e.okX,
				})
			}
		}
	}
	add("I", c.mtlb.i[:])
	add("D", c.mtlb.d[:])
	return out
}

// MicroTLBStats returns host-side fastpath hit/miss counters (I-side then
// D-side). Host observability only — never part of the emulated identity
// surface, which is why they are not in mem.Stats.
func (c *VCPU) MicroTLBStats() (iHits, iMisses, dHits, dMisses uint64) {
	return c.mtlb.iHits, c.mtlb.iMisses, c.mtlb.dHits, c.mtlb.dMisses
}
