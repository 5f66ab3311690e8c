package verify

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// pidVA dedupes findings that would otherwise repeat per domain view.
type pidVA struct {
	pid int
	va  mem.VA
}

// regionName classifies a TTBR1-half VA into the LightZone-owned region it
// belongs to.
func regionName(va mem.VA) string {
	switch {
	case uint64(va) >= core.TTBRTabBase():
		return "ttbrtab"
	case uint64(va) >= core.GateTabBase():
		return "gatetab"
	case uint64(va) >= core.GateCodeBase():
		return "gate-code"
	default:
		return "stub"
	}
}

// ttbr1Real resolves a TTBR1-half VA to the real physical address behind it
// via a software walk of the process's TTBR1 table and the fake-physical
// layer. Gate code frames are not physically contiguous (table-frame
// allocation interleaves with them), so per-page resolution is the only
// correct way to read gate state.
func ttbr1Real(p *ProcSnap, va uint64) (mem.PA, bool) {
	res, err := p.TTBR1Table().Walk(mem.VA(va))
	if err != nil || !res.Found {
		return 0, false
	}
	real, ok := p.RealOf(mem.IPA(res.Desc & mem.OAMask))
	if !ok {
		return 0, false
	}
	return real + mem.PA(va&mem.PageMask), ok
}

// checkWX is the W-xor-X audit: no stage-1 mapping anywhere may be both
// writable and executable; the frames backing the TTBR1 half (trap stub,
// gate code, GateTab, TTBRTab) must never be writable, user-accessible or
// aliased writable/user from any TTBR0 domain table; and stage-2 must not
// grant the process write access to them either.
func checkWX(s *Snapshot) []Finding {
	var out []Finding
	for pi := range s.Procs {
		p := &s.Procs[pi]
		sensitive := make(map[mem.PA]string)
		for _, m := range p.TTBR1 {
			region := regionName(m.VA)
			if !m.HasReal {
				out = append(out, Finding{
					Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: -1,
					VA:     uint64(m.VA),
					Detail: fmt.Sprintf("%s mapping has no real frame behind its fake OA %#x", region, m.Desc&mem.OAMask),
				})
				continue
			}
			sensitive[m.Real] = region
			if m.Writable() {
				out = append(out, Finding{
					Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: -1,
					VA: uint64(m.VA), PA: uint64(m.Real),
					Detail: fmt.Sprintf("LightZone-reserved %s page is writable", region),
				})
			}
			if m.User() {
				out = append(out, Finding{
					Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: -1,
					VA: uint64(m.VA), PA: uint64(m.Real),
					Detail: fmt.Sprintf("LightZone-reserved %s page is user-accessible", region),
				})
			}
		}
		for _, d := range p.Domains {
			for _, m := range d.Maps {
				if m.Exec() && m.Writable() {
					out = append(out, Finding{
						Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: d.ID,
						VA: uint64(m.VA), PA: uint64(m.Real),
						Detail: "writable and executable mapping (W xor X violated)",
					})
				}
				if !m.HasReal {
					out = append(out, Finding{
						Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: d.ID,
						VA:     uint64(m.VA),
						Detail: fmt.Sprintf("mapping has no real frame behind its fake OA %#x", m.Desc&mem.OAMask),
					})
					continue
				}
				for off := uint64(0); off < m.Size; off += mem.PageSize {
					region, hit := sensitive[m.Real+mem.PA(off)]
					if !hit {
						continue
					}
					switch {
					case m.Writable():
						out = append(out, Finding{
							Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: d.ID,
							VA: uint64(m.VA) + off, PA: uint64(m.Real + mem.PA(off)),
							Detail: fmt.Sprintf("writable TTBR0 alias of %s frame", region),
						})
					case m.User():
						out = append(out, Finding{
							Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: d.ID,
							VA: uint64(m.VA) + off, PA: uint64(m.Real + mem.PA(off)),
							Detail: fmt.Sprintf("user-accessible TTBR0 alias of %s frame", region),
						})
					}
				}
			}
		}
		// Stage-2 must keep every sensitive frame read-only: stage-1
		// attributes are attacker-adjacent (TTBR0 tables), stage-2 is the
		// hypervisor's backstop.
		_ = p.S2().Visit(func(ipa mem.IPA, desc uint64, size uint64) bool {
			if desc&mem.S2APWrite == 0 {
				return true
			}
			real := mem.PA(desc & mem.OAMask)
			for off := uint64(0); off < size; off += mem.PageSize {
				if region, hit := sensitive[real+mem.PA(off)]; hit {
					out = append(out, Finding{
						Checker: "wx-audit", PID: p.PID, Proc: p.Name, Domain: -1,
						VA: uint64(ipa) + off, PA: uint64(real + mem.PA(off)),
						Detail: fmt.Sprintf("stage-2 grants write access to %s frame", region),
					})
				}
			}
			return true
		})
	}
	return out
}

// checkSanitizer re-proves the Table 3 claim: every kernel-executable page
// reachable through any TTBR0 domain table contains no sensitive
// instruction under the process's sanitization policy. The TTBR1 half is
// exempt by construction (the stub ERETs, the gate writes TTBR0 — that is
// their job and they are immutable to the process).
func checkSanitizer(s *Snapshot) []Finding {
	var out []Finding
	for pi := range s.Procs {
		p := &s.Procs[pi]
		if p.Policy == core.SanNone {
			continue // ablation: no sanitization invariant is claimed
		}
		seen := make(map[pidVA]bool)
		for _, d := range p.Domains {
			for _, m := range d.Maps {
				if !m.Exec() || !m.HasReal || mem.IsTTBR1(m.VA) {
					continue
				}
				data := make([]byte, m.Size)
				if err := s.M.PM.Read(m.Real, data); err != nil {
					out = append(out, Finding{
						Checker: "sanitizer-sweep", PID: p.PID, Proc: p.Name, Domain: d.ID,
						VA: uint64(m.VA), PA: uint64(m.Real),
						Detail: fmt.Sprintf("executable mapping unreadable: %v", err),
					})
					continue
				}
				for _, v := range core.SanitizeAll(data, p.Policy) {
					va := m.VA + mem.VA(v.Offset)
					if seen[pidVA{p.PID, va}] {
						continue
					}
					seen[pidVA{p.PID, va}] = true
					out = append(out, Finding{
						Checker: "sanitizer-sweep", PID: p.PID, Proc: p.Name, Domain: d.ID,
						VA: uint64(va), PA: uint64(m.Real) + uint64(v.Offset),
						Word: v.Word, Disasm: arm64.Disassemble(v.Word),
						Detail: fmt.Sprintf("sensitive instruction in executable page: %s", v.Reason),
					})
				}
			}
		}
	}
	return out
}

// checkGates verifies every registered call-gate slot structurally: branches
// confined to the slot, a lone TTBR0 write, terminal RET, violation-only
// HVC, and consistency of the GateTab and TTBRTab entries the gate consults
// at run time. Byte identity with the generated gate is deliberately NOT
// checked here any more — the load-bearing check is the semantic proof
// (gate-semantics), which accepts any gate body with the proven properties
// and rejects byte-plausible ones without them. The slot is audited over its
// occupied extent (trailing zero words are unreachable padding that faults
// closed).
func checkGates(s *Snapshot) []Finding {
	var out []Finding
	for pi := range s.Procs {
		p := &s.Procs[pi]
		domains := make(map[int]*DomainSnap)
		for di := range p.Domains {
			domains[p.Domains[di].ID] = &p.Domains[di]
		}
		for _, g := range p.Gates {
			slotVA := core.GateCodeBase() + uint64(g.ID)*core.GateSlotLen
			slotPA, ok := ttbr1Real(p, slotVA)
			if !ok {
				out = append(out, Finding{
					Checker: "gate-integrity", PID: p.PID, Proc: p.Name, Domain: -1,
					VA:     slotVA,
					Detail: fmt.Sprintf("gate %d: slot not mapped in TTBR1", g.ID),
				})
				continue
			}
			raw := make([]byte, core.GateSlotLen)
			if err := s.M.PM.Read(slotPA, raw); err != nil {
				out = append(out, Finding{
					Checker: "gate-integrity", PID: p.PID, Proc: p.Name, Domain: -1,
					VA: slotVA, PA: uint64(slotPA),
					Detail: fmt.Sprintf("gate %d: slot unreadable: %v", g.ID, err),
				})
				continue
			}
			words := arm64.BytesToWords(raw)
			extent := len(words)
			for extent > 0 && words[extent-1] == 0 {
				extent--
			}
			out = append(out, gateStructure(p, g, slotVA, words[:extent])...)
			out = append(out, gateTables(s, p, g, domains)...)
		}
	}
	return out
}

// gateStructure decodes the installed slot and checks the properties that
// make the gate safe independently of byte identity — the structural
// argument of §6.2.
func gateStructure(p *ProcSnap, g core.GateInfo, slotVA uint64, words []uint32) []Finding {
	var out []Finding
	slotEnd := slotVA + uint64(len(words))*arm64.InsnBytes
	ttbr0Key := arm64.TTBR0EL1.Enc().Key()
	msrTTBR0, rets := 0, 0
	finding := func(i int, detail string) {
		out = append(out, Finding{
			Checker: "gate-integrity", PID: p.PID, Proc: p.Name, Domain: -1,
			VA: slotVA + uint64(i)*arm64.InsnBytes, Word: words[i],
			Disasm: arm64.Disassemble(words[i]),
			Detail: fmt.Sprintf("gate %d: %s", g.ID, detail),
		})
	}
	for i, w := range words {
		in := arm64.Decode(w)
		pc := slotVA + uint64(i)*arm64.InsnBytes
		switch in.Op {
		case arm64.OpB, arm64.OpBL, arm64.OpBCond, arm64.OpCBZ, arm64.OpCBNZ:
			if tgt := pc + uint64(in.Imm); tgt < slotVA || tgt >= slotEnd {
				finding(i, fmt.Sprintf("branch leaves the gate slot (target %#x)", tgt))
			}
		case arm64.OpBR, arm64.OpBLR:
			finding(i, "indirect branch inside the gate (check phase must be unskippable)")
		case arm64.OpMSRReg:
			if in.Sys.Key() == ttbr0Key {
				msrTTBR0++
			} else {
				finding(i, "system-register write other than TTBR0_EL1")
			}
		case arm64.OpRET:
			rets++
		case arm64.OpERET:
			finding(i, "ERET inside the gate")
		case arm64.OpHVC:
			if in.Imm != core.HVCViolation {
				finding(i, fmt.Sprintf("HVC #%#x is not the violation report", in.Imm))
			}
		case arm64.OpSVC, arm64.OpSMC:
			finding(i, fmt.Sprintf("unexpected %v in the gate", in.Op))
		case arm64.OpUnknown:
			finding(i, "undecodable word in the gate")
		}
	}
	if msrTTBR0 != 1 {
		out = append(out, Finding{
			Checker: "gate-integrity", PID: p.PID, Proc: p.Name, Domain: -1,
			VA:     slotVA,
			Detail: fmt.Sprintf("gate %d: expected exactly one TTBR0_EL1 write, found %d", g.ID, msrTTBR0),
		})
	}
	if rets != 1 {
		out = append(out, Finding{
			Checker: "gate-integrity", PID: p.PID, Proc: p.Name, Domain: -1,
			VA:     slotVA,
			Detail: fmt.Sprintf("gate %d: expected exactly one RET, found %d", g.ID, rets),
		})
	}
	return out
}

// gateTables cross-checks the GateTab entry (ENTRY, PGTID) and the TTBRTab
// slot the gate will read, via the same TTBR1 translations the hardware
// would use.
func gateTables(s *Snapshot, p *ProcSnap, g core.GateInfo, domains map[int]*DomainSnap) []Finding {
	var out []Finding
	entryVA := core.GateTabBase() + uint64(g.ID)*16
	bad := func(va uint64, detail string) {
		out = append(out, Finding{
			Checker: "gate-integrity", PID: p.PID, Proc: p.Name, Domain: -1,
			VA: va, Detail: fmt.Sprintf("gate %d: %s", g.ID, detail),
		})
	}
	entryPA, ok := ttbr1Real(p, entryVA)
	if !ok {
		bad(entryVA, "GateTab entry not mapped in TTBR1")
		return out
	}
	entry, err1 := s.M.PM.ReadU64(entryPA)
	pgtid, err2 := s.M.PM.ReadU64(entryPA + 8)
	if err1 != nil || err2 != nil {
		bad(entryVA, "GateTab entry unreadable")
		return out
	}
	if entry != g.Entry {
		bad(entryVA, fmt.Sprintf("GateTab ENTRY is %#x, registered entry is %#x", entry, g.Entry))
	}
	if pgtid != uint64(g.PGTID) {
		bad(entryVA+8, fmt.Sprintf("GateTab PGTID is %d, registered target is %d", pgtid, g.PGTID))
	}
	d, ok := domains[g.PGTID]
	if !ok {
		bad(entryVA+8, fmt.Sprintf("gate targets page table %d which does not exist", g.PGTID))
		return out
	}
	ttbrVA := core.TTBRTabBase() + uint64(g.PGTID)*8
	ttbrPA, ok := ttbr1Real(p, ttbrVA)
	if !ok {
		bad(ttbrVA, fmt.Sprintf("TTBRTab slot for page table %d not mapped in TTBR1", g.PGTID))
		return out
	}
	ttbr, err := s.M.PM.ReadU64(ttbrPA)
	if err != nil {
		bad(ttbrVA, "TTBRTab slot unreadable")
		return out
	}
	if ttbr != d.TTBR {
		bad(ttbrVA, fmt.Sprintf("TTBRTab[%d] is %#x, page table %d has TTBR %#x", g.PGTID, ttbr, d.ID, d.TTBR))
	}
	return out
}

// checkCFG builds an exact control-flow graph over each domain's executable
// pages and proves no application-reachable instruction is forbidden. The
// CFG distinguishes literal pools and smuggled-but-unreachable words from
// instructions that can actually execute; reachable undecodable words and
// non-API hypervisor calls are flagged too. The SanNone ablation is audited
// under the TTBR policy — the CFG answers "could this escalate", not "was
// the sanitizer configured".
func checkCFG(s *Snapshot) []Finding {
	var out []Finding
	for pi := range s.Procs {
		p := &s.Procs[pi]
		pol := p.Policy
		if pol == core.SanNone {
			pol = core.SanTTBR
		}
		seen := make(map[pidVA]bool)
		for _, d := range p.Domains {
			var segs []arm64.CFGSegment
			for _, m := range d.Maps {
				if !m.Exec() || !m.HasReal || mem.IsTTBR1(m.VA) {
					continue
				}
				data := make([]byte, m.Size)
				if err := s.M.PM.Read(m.Real, data); err != nil {
					continue // unreadable exec page already reported by the sweep
				}
				segs = append(segs, arm64.CFGSegment{Base: uint64(m.VA), Words: arm64.BytesToWords(data)})
			}
			if len(segs) == 0 {
				continue
			}
			entries := []uint64{uint64(kernel.TextBase)}
			for _, g := range p.Gates {
				if g.PGTID == d.ID {
					entries = append(entries, g.Entry)
				}
			}
			cfg := arm64.BuildCFG(segs, entries)
			cfg.VisitReachable(func(addr uint64, word uint32, in arm64.Insn) bool {
				key := pidVA{p.PID, mem.VA(addr)}
				if seen[key] {
					return true
				}
				detail := ""
				switch reason := core.CheckWord(word, pol); {
				case reason != "":
					detail = fmt.Sprintf("reachable sensitive instruction: %s", reason)
				case in.Op == arm64.OpHVC && in.Imm != core.HVCSyscall &&
					!(p.Backend == "granule" && in.Imm == core.HVCGranuleEnter):
					// The realm-enter call is part of the granule backend's
					// API surface; under every other backend it is as foreign
					// as any unknown hypercall.
					detail = fmt.Sprintf("reachable HVC #%#x is not the syscall API", in.Imm)
				case in.Op == arm64.OpUnknown && word != 0:
					// Zero words are text padding reached by fall-through past
					// the last instruction; they are architecturally undefined
					// and fault closed, so only non-zero undecodable words are
					// suspicious.
					detail = "reachable undecodable word"
				default:
					return true
				}
				seen[key] = true
				out = append(out, Finding{
					Checker: "cfg-reachability", PID: p.PID, Proc: p.Name, Domain: d.ID,
					VA: addr, Word: word, Disasm: arm64.Disassemble(word),
					Detail: detail,
				})
				return true
			})
		}
	}
	return out
}

// checkCaches proves the translation and decode caches coherent: every TLB
// entry belonging to a LightZone VM must be re-derivable by a software walk
// of the table its tag selects, and every epoch-valid decoded block must
// match the bytes currently reachable through its keyed address space.
func checkCaches(s *Snapshot) []Finding {
	var out []Finding
	byVMID := make(map[uint16]*ProcSnap)
	for pi := range s.Procs {
		byVMID[s.Procs[pi].VMID] = &s.Procs[pi]
	}
	tlb := s.M.CPU.TLB
	tlb.Visit(func(vmid, asid uint16, global bool, va mem.VA, e mem.TLBEntry) bool {
		p, ok := byVMID[vmid]
		if !ok {
			return true // host/outer-guest entry: no LightZone invariant
		}
		switch {
		case mem.IsTTBR1(va):
			out = append(out, tlbCheck(p, -1, p.TTBR1Table(), va, e)...)
		case global:
			// Global (unprotected) mappings must agree with every domain
			// view — that is what makes them safe to share across switches.
			for _, d := range p.Domains {
				out = append(out, tlbCheck(p, d.ID, d.S1, va, e)...)
			}
		default:
			found := false
			for _, d := range p.Domains {
				if d.ASID == asid {
					out = append(out, tlbCheck(p, d.ID, d.S1, va, e)...)
					found = true
					break
				}
			}
			if !found {
				out = append(out, Finding{
					Checker: "cache-coherence", PID: p.PID, Proc: p.Name, Domain: -1,
					VA:     uint64(va),
					Detail: fmt.Sprintf("TLB entry tagged with ASID %d which no live page table uses", asid),
				})
			}
		}
		return true
	})
	out = append(out, blockCacheCheck(s, byVMID)...)
	out = append(out, traceCacheCheck(s, byVMID)...)
	out = append(out, checkMicroTLBs(s, byVMID)...)
	return out
}

// tlbCheck re-walks one stage-1 table for a cached translation and compares
// descriptor, mapping size and the real output frame.
func tlbCheck(p *ProcSnap, domain int, s1 *mem.Stage1, va mem.VA, e mem.TLBEntry) []Finding {
	var out []Finding
	bad := func(detail string) {
		out = append(out, Finding{
			Checker: "cache-coherence", PID: p.PID, Proc: p.Name, Domain: domain,
			VA: uint64(va), PA: uint64(e.PABase), Detail: detail,
		})
	}
	res, err := s1.Walk(va)
	if err != nil || !res.Found {
		bad("TLB entry for a VA the page table no longer maps")
		return out
	}
	if res.Desc != e.S1Desc {
		bad(fmt.Sprintf("TLB stage-1 descriptor %#x differs from table descriptor %#x", e.S1Desc, res.Desc))
		return out
	}
	if res.BlockShift != e.BlockShift {
		bad(fmt.Sprintf("TLB block shift %d differs from table %d", e.BlockShift, res.BlockShift))
		return out
	}
	fk := mem.IPA(res.Desc & mem.OAMask)
	if e.BlockShift == mem.HugePageShift {
		fk &^= mem.IPA(mem.HugePageMask)
	}
	real, ok := p.RealOf(fk)
	if !ok {
		bad(fmt.Sprintf("no real frame behind fake OA %#x of the cached mapping", uint64(fk)))
		return out
	}
	if real != e.PABase {
		bad(fmt.Sprintf("TLB output base %#x differs from current real frame %#x", uint64(e.PABase), uint64(real)))
	}
	if e.HasS2 {
		s2res, err := p.S2().Walk(fk)
		if err != nil || !s2res.Found {
			bad("TLB entry with stage-2 attributes for an unmapped IPA")
		} else if s2res.Desc != e.S2Desc {
			bad(fmt.Sprintf("TLB stage-2 descriptor %#x differs from table descriptor %#x", e.S2Desc, s2res.Desc))
		}
	}
	return out
}

// blockCacheCheck verifies that every decoded block the pipeline would
// still replay (epoch-valid) decodes the bytes currently behind its page.
func blockCacheCheck(s *Snapshot, byVMID map[uint16]*ProcSnap) []Finding {
	var out []Finding
	for _, b := range s.M.CPU.DecodedBlocks() {
		if !b.EpochOK {
			continue // stale: discarded on next entry, no invariant
		}
		p, ok := byVMID[b.VMID]
		if !ok {
			continue
		}
		va := b.Page<<mem.PageShift | uint64(b.Off)
		bad := func(detail string) {
			out = append(out, Finding{
				Checker: "cache-coherence", PID: p.PID, Proc: p.Name, Domain: -1,
				VA: va, Detail: detail,
			})
		}
		pa, detail := codeFramePA(p, b.MMUOff, b.ASID, va)
		if detail != "" {
			bad("decoded block " + detail)
			continue
		}
		raw := make([]byte, len(b.Raw)*arm64.InsnBytes)
		if err := s.M.PM.Read(pa, raw); err != nil {
			bad(fmt.Sprintf("decoded block bytes unreadable at %#x: %v", uint64(pa), err))
			continue
		}
		for i, w := range arm64.BytesToWords(raw) {
			if w != b.Raw[i] {
				bad(fmt.Sprintf("epoch-valid decoded block differs from memory at +%#x: cached %#08x, memory %#08x",
					i*arm64.InsnBytes, b.Raw[i], w))
				break
			}
		}
	}
	return out
}

// codeFramePA resolves the real physical address behind an executable VA in
// the keyed address space a cached artifact (decoded block or stitched
// trace) was built under, mirroring the fetch path the pipeline itself
// takes. A non-empty string is a finding detail: resolution failed, so the
// cached artifact outlived its mapping.
func codeFramePA(p *ProcSnap, mmuOff bool, asid uint16, va uint64) (mem.PA, string) {
	if mmuOff {
		return mem.PA(va), ""
	}
	var s1 *mem.Stage1
	if mem.IsTTBR1(mem.VA(va)) {
		s1 = p.TTBR1Table()
	} else {
		for _, d := range p.Domains {
			if d.ASID == asid {
				s1 = d.S1
				break
			}
		}
		// Global-page code carries the ASID that was live at decode time;
		// any domain view must yield the same bytes, so the base table
		// stands in when the ASID is gone.
		if s1 == nil && len(p.Domains) > 0 {
			s1 = p.Domains[0].S1
		}
	}
	if s1 == nil {
		return 0, fmt.Sprintf("tagged with ASID %d which no table uses", asid)
	}
	res, err := s1.Walk(mem.VA(va))
	if err != nil || !res.Found {
		return 0, "covers a VA the page table no longer maps"
	}
	fk := mem.IPA(res.Desc & mem.OAMask)
	off := va & mem.PageMask
	if res.BlockShift == mem.HugePageShift {
		fk &^= mem.IPA(mem.HugePageMask)
		off = va & uint64(mem.HugePageMask)
	}
	real, ok := p.RealOf(fk)
	if !ok {
		return 0, fmt.Sprintf("has no real frame behind fake OA %#x", uint64(fk))
	}
	return real + mem.PA(off), ""
}

// traceCacheCheck extends the audit to stitched traces: a live trace — one
// whose entry guard would still admit it (every member page's epoch fresh)
// — must predict exactly the words currently readable through its keyed
// address space at every step PC. A stale trace carries no invariant: the
// guard refuses and drops it, and the stitcher rebuilds from memory.
func traceCacheCheck(s *Snapshot, byVMID map[uint16]*ProcSnap) []Finding {
	var out []Finding
	for _, tr := range s.M.CPU.TraceSnapshot() {
		p, ok := byVMID[tr.VMID]
		if !ok {
			continue
		}
		va, detail := traceWordsCheck(tr, func(va uint64) (mem.PA, string) {
			return codeFramePA(p, tr.MMUOff, tr.ASID, va)
		}, s.M.PM.ReadU32)
		if detail != "" {
			out = append(out, Finding{
				Checker: "cache-coherence", PID: p.PID, Proc: p.Name, Domain: -1,
				VA: va, Detail: detail,
			})
		}
	}
	return out
}

// traceWordsCheck is the per-trace core of traceCacheCheck, parameterized
// over address resolution and physical reads so it unit-tests without a
// machine snapshot. It returns the offending VA and a finding detail, or
// ("", 0) when the trace is coherent or dormant.
func traceWordsCheck(tr cpu.TraceInfo, resolve func(uint64) (mem.PA, string), readU32 func(mem.PA) (uint32, error)) (uint64, string) {
	if !tr.EpochOK {
		return 0, "" // dormant: refused by the entry guard, no invariant
	}
	for i, va := range tr.PCs {
		pa, detail := resolve(va)
		if detail != "" {
			return va, "live stitched trace " + detail
		}
		w, err := readU32(pa)
		if err != nil {
			return va, fmt.Sprintf("live stitched trace step unreadable at %#x: %v", uint64(pa), err)
		}
		if w != tr.Raw[i] {
			return va, fmt.Sprintf("live stitched trace differs from memory: step %d predicts %#08x, memory holds %#08x", i, tr.Raw[i], w)
		}
	}
	return 0, ""
}
