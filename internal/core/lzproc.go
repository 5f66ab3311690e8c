package core

import (
	"fmt"
	"slices"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/trace"
)

// lz_prot permission bits (Table 2: readable, writable, executable, user).
const (
	PermRead  = 1 << 0
	PermWrite = 1 << 1
	PermExec  = 1 << 2
	// PermUser marks the region a PAN-protected domain: its PTEs carry
	// the user bit (and the global bit) in every page table, so access
	// is gated solely by PSTATE.PAN (§6.1, Listing 1 line 7).
	PermUser = 1 << 3
)

// PGTAll attaches a region to every page table of the process (used
// together with PermUser).
const PGTAll = -1

// TTBR1-range layout of the LightZone-owned mappings for each process.
// The gate code and its two validation tables are laid out within ±1MB of
// each other so the gate can address GateTab/TTBRTab with single PC-relative
// ADR instructions (keeping the secure gate short, which matters for the
// Table 5 switch costs).
const (
	stubVA      = mem.TTBR1Base               // trap-forwarding vector page
	gateCodeVA  = mem.TTBR1Base + 0x0030_0000 // call gate code blocks (256KB)
	gateTabVA   = mem.TTBR1Base + 0x0034_0000 // GateTab (read-only)
	ttbrTabVA   = mem.TTBR1Base + 0x0034_8000 // TTBRTab (read-only, 512KB max)
	gateSlotLen = 128                         // bytes per call gate
)

// MaxPageTables is the paper's scalability claim: 2^16 isolation domains.
const MaxPageTables = 1 << 16

// DomainPGT is one LightZone stage-1 page table (one isolation domain view).
type DomainPGT struct {
	ID int
	S1 *mem.Stage1
}

// TTBR returns the TTBR0 value selecting this table.
func (d *DomainPGT) TTBR() uint64 {
	return cpu.MakeTTBR(uint64(d.S1.Root()), d.S1.ASID())
}

type execState uint8

const (
	execNone  execState = iota // not yet executable
	execClean                  // sanitized, mapped X, not W
	execDirty                  // mapped W (writable), not X
)

type protInfo struct {
	pgts map[int]int // pgt id -> perm overlay
	user bool        // PAN-protected
	perm int
}

// GateEntry is a statically allocated legitimate entry: the address
// immediately after an lz_switch_to_ttbr_gate expansion (§6.2).
type GateEntry struct {
	GateID int
	Entry  uint64
}

// LZProc is the kernel module's per-process state for one LightZone
// (kernel-mode) process.
type LZProc struct {
	lz   *LightZone
	kern *kernel.Kernel
	proc *kernel.Process
	vm   *hyp.VM

	// backend is the isolation substrate the process entered with; the
	// module routes lifecycle syscalls, backend-private HVCs and fault
	// classification through it.
	backend Backend
	// okeys is overlay-backend state (nil elsewhere; backend_overlay.go).
	okeys *overlayState
	// gran is granule-backend state (nil elsewhere; backend_granule.go).
	gran *granuleState

	allowScalable bool
	policy        SanPolicy
	fake          *FakePhys

	pgts    map[int]*DomainPGT
	byRoot  map[mem.PA]*DomainPGT
	nextPGT int
	freePGT []int // recycled domain ids, LIFO (see newPGT)
	// maxDomains caps live domain ids below MaxPageTables when set
	// (NR_LZID regime knob: the reference lzko module ships 128 where the
	// paper claims 2^16). 0 means the paper default.
	maxDomains int
	ttbr1      *mem.Stage1
	ttbr1Val   uint64

	// Kernel-managed read-only tables backing the call gate (§6.2).
	gateTabPA mem.PA
	ttbrTabPA []mem.PA // demand-allocated pages of the TTBR table
	gateCode  mem.PA   // gate code page(s)
	gatePages int

	gateEntries map[int]uint64 // gate id -> ENTRY VA
	gatePgt     map[int]int    // gate id -> PGTID

	protected map[mem.VA]*protInfo
	exec      map[mem.VA]execState

	world kernel.World

	// lastSchedSeen drives the shared pt_regs relookup cost (§8.1).
	lastSchedSeen int64
	// outerVTTBR is the enclosing guest VM's VTTBR for guest LightZone
	// processes (the Lowvisor switches between it and the LZ VM's).
	outerVTTBR uint64
	// pendingWorldRestore marks a conventional (ablated) trap entry that
	// must rewrite HCR_EL2/VTTBR_EL2 on the way out.
	pendingWorldRestore bool

	// Stats.
	Traps      int64
	Violations int64
}

// World exposes the process world configuration to kernel.worldFor.
func (lp *LZProc) World() *kernel.World { return &lp.world }

// VM returns the per-process virtual machine.
func (lp *LZProc) VM() *hyp.VM { return lp.vm }

// Policy returns the sanitization policy.
func (lp *LZProc) Policy() SanPolicy { return lp.policy }

// PageTable returns domain page table id, if allocated.
func (lp *LZProc) PageTable(id int) (*DomainPGT, bool) {
	d, ok := lp.pgts[id]
	return d, ok
}

// NumPageTables returns the number of live domain page tables.
func (lp *LZProc) NumPageTables() int { return len(lp.pgts) }

// DomainLimit returns the effective cap on live domain page tables.
func (lp *LZProc) DomainLimit() int {
	if lp.maxDomains > 0 {
		return lp.maxDomains
	}
	return MaxPageTables
}

// SetDomainLimit caps the number of domain page tables this process may
// hold live — the NR_LZID regime knob (128 in the reference lzko module,
// 2^16 in the paper). 0 restores the paper default. The limit bounds both
// the live count and the id space, so the TTBRTab footprint of a capped
// process stays at ceil(limit/512) pages no matter how much churn it sees.
func (lp *LZProc) SetDomainLimit(n int) error {
	if n < 0 || n > MaxPageTables {
		return fmt.Errorf("domain limit %d out of range [0, %d]", n, MaxPageTables)
	}
	if n != 0 && len(lp.pgts) > n {
		return fmt.Errorf("domain limit %d below %d live page tables", n, len(lp.pgts))
	}
	lp.maxDomains = n
	return nil
}

// PGTIDHighWater returns the number of distinct domain ids ever handed out
// (the id counter's high-water mark). With free-list recycling this stays
// within one of the peak live count regardless of alloc/free churn; before
// the fix it grew monotonically and eventually walked the TTBRTab off its
// 512KB window.
func (lp *LZProc) PGTIDHighWater() int { return lp.nextPGT }

// FreePGTIDs returns the number of recycled domain ids currently parked on
// the free list.
func (lp *LZProc) FreePGTIDs() int { return len(lp.freePGT) }

// PageTableBytes sums stage-1 and stage-2 table memory for the process —
// the paper's page-table memory overhead metric.
func (lp *LZProc) PageTableBytes() uint64 {
	total := lp.vm.S2.TableBytes() + lp.ttbr1.TableBytes()
	for _, d := range lp.pgts {
		total += d.S1.TableBytes()
	}
	return total
}

// currentPGT resolves the domain table selected by the vCPU's TTBR0.
func (lp *LZProc) currentPGT() (*DomainPGT, bool) {
	root := mem.PA(cpu.TTBRRoot(lp.kern.CPU.Sys(arm64.TTBR0EL1)))
	d, ok := lp.byRoot[root]
	return d, ok
}

// s2MapTable identity-maps a stage-1 table frame read-only in the
// process's stage-2 ("stage-1 page tables are read-only in stage-2
// mapping", §5.1.2).
func (lp *LZProc) s2MapTable(pa mem.PA) {
	if err := lp.vm.S2.Map(mem.IPA(pa), pa, mem.S2APRead); err != nil {
		// Table frames are kernel-allocated; failure is a simulator bug.
		panic(fmt.Sprintf("lightzone: stage-2 table map: %v", err))
	}
}

// s2MapData maps a fake page to its real frame in stage-2 with RW access
// (stage-1 attributes enforce read-only and execute permissions).
func (lp *LZProc) s2MapData(fake mem.IPA, real mem.PA) error {
	return lp.vm.S2.Map(fake, real, mem.S2APRead|mem.S2APWrite)
}

// newPGT allocates a stage-1 domain table wired for stage-2 table
// mirroring. Domain ids are recycled LIFO through the free list: a freed
// id's TTBRTab slot is rewritten in place on reuse, so the table never
// grows past ceil(limit/512) pages and the gate's PC-relative addressing
// of a slot stays valid across any amount of alloc/free churn.
func (lp *LZProc) newPGT() (*DomainPGT, error) {
	limit := lp.DomainLimit()
	if len(lp.pgts) >= limit {
		return nil, fmt.Errorf("page table limit (%d) reached", limit)
	}
	if len(lp.freePGT) == 0 && lp.nextPGT >= limit {
		// Unreachable while Free recycles every id (live < limit implies
		// a parked id), but kept as a hard stop against id-space walk-off:
		// handing out an id ≥ limit would index writeTTBRTab past the
		// window the regime promised.
		return nil, fmt.Errorf("page table id space (%d) exhausted with %d live", limit, len(lp.pgts))
	}
	s1, err := mem.NewStage1(lp.kern.PM, lp.kern.AllocASID())
	if err != nil {
		return nil, err
	}
	s1.OnAllocTable = lp.s2MapTable
	lp.s2MapTable(s1.Root())
	id := lp.nextPGT
	if n := len(lp.freePGT); n > 0 {
		id = lp.freePGT[n-1]
		lp.freePGT = lp.freePGT[:n-1]
	} else {
		lp.nextPGT++
	}
	d := &DomainPGT{ID: id, S1: s1}
	lp.pgts[d.ID] = d
	lp.byRoot[s1.Root()] = d
	return d, nil
}

// translateAttrs converts a kernel-managed PTE attribute set (a user-mode
// process mapping) into the equivalent LightZone kernel-mode mapping:
// permissions for user-mode execution now apply to kernel mode — UXN
// becomes PXN, user pages become kernel pages (§5.1.2). Unprotected pages
// are global (nG clear) so they stay TLB-resident across domain switches.
func translateAttrs(kdesc uint64) uint64 {
	attrs := uint64(mem.AttrUXN) // nothing runs at EL0 inside the VM
	if kdesc&mem.AttrUXN != 0 {
		attrs |= mem.AttrPXN
	}
	if kdesc&mem.AttrAPRO != 0 {
		attrs |= mem.AttrAPRO
	}
	return attrs
}

// mapIntoPGT installs a page (or 2MB block) into one domain table, routing
// the output address through the fake-physical layer and eagerly mapping
// stage-2 (§5.2: eager stage-2 mapping avoids back-to-back faults).
func (lp *LZProc) mapIntoPGT(d *DomainPGT, va mem.VA, realPA mem.PA, size uint64, attrs uint64) error {
	if size == mem.HugePageSize {
		fk := lp.fake.FakeOfBlock(realPA)
		if err := d.S1.MapBlock(va, mem.PA(fk), attrs); err != nil {
			return err
		}
		if lp.lz.Opts.DisableEagerS2 {
			return nil // ablation: stage-2 populated on its own fault
		}
		return lp.vm.S2.MapBlock(fk, realPA, mem.S2APRead|mem.S2APWrite)
	}
	fk := lp.fake.FakeOf(realPA)
	if err := d.S1.Map(va, mem.PA(fk), attrs); err != nil {
		return err
	}
	if lp.lz.Opts.DisableEagerS2 {
		return nil
	}
	return lp.s2MapData(fk, realPA)
}

// mapUnprotected installs an unprotected page into every domain table as a
// global mapping. Tables are visited in ascending id (ids are dense: Free
// recycles them), so the table frames the mappings allocate land at the same
// physical addresses on every run.
func (lp *LZProc) mapUnprotected(va mem.VA, realPA mem.PA, size uint64, attrs uint64) error {
	for id := 0; id < lp.nextPGT; id++ {
		d, ok := lp.pgts[id]
		if !ok {
			continue
		}
		if err := lp.mapIntoPGT(d, va, realPA, size, attrs); err != nil {
			return err
		}
	}
	return nil
}

// unmapEverywhere removes va from every domain table and flushes the TLB
// entries for it.
func (lp *LZProc) unmapEverywhere(va mem.VA) {
	for _, d := range lp.pgts {
		_, _ = d.S1.Unmap(va)
	}
	lp.kern.CPU.TLB.InvalidateVA(lp.vm.VMID, va)
}

// traceCodeInval records a decoded-code invalidation for a page whose
// mapping or contents changed; the epoch bump itself rides on the TLB
// invalidation (or InvalidateCode) performed by the caller.
func (lp *LZProc) traceCodeInval(va mem.VA, why string) {
	lp.lz.Trace.Record(lp.kern.CPU.Cycles, trace.KindCodeInval, lp.proc.PID, "page %v: %s", va, why)
}

// kernelFrame resolves the real frame backing va in the kernel-managed
// table, faulting it in on demand.
func (lp *LZProc) kernelFrame(va mem.VA) (mem.PA, uint64, uint64, error) {
	as := lp.proc.AS
	res, err := as.S1.Walk(va)
	if err != nil {
		return 0, 0, 0, err
	}
	if !res.Found {
		ok, err := as.DemandMap(va)
		if err != nil || !ok {
			return 0, 0, 0, fmt.Errorf("no kernel mapping for %v: %w", va, err)
		}
		res, err = as.S1.Walk(va)
		if err != nil || !res.Found {
			return 0, 0, 0, fmt.Errorf("demand map lost %v", va)
		}
	}
	size := uint64(mem.PageSize)
	pa := res.PA &^ mem.PA(mem.PageMask)
	if res.BlockShift == mem.HugePageShift {
		size = mem.HugePageSize
		pa = res.PA &^ mem.PA(mem.HugePageMask)
	}
	return pa, res.Desc, size, nil
}

// Prot implements lz_prot (Table 2): attach [addr, addr+len) to page table
// pgt with a permission overlay. perm&PermUser attaches to all tables as
// PAN-protected user pages. During later faults, protected pages receive
// the least permission by intersecting the overlay with the kernel VMA.
func (lp *LZProc) Prot(addr mem.VA, length uint64, pgt int, perm int) error {
	if uint64(addr)&mem.PageMask != 0 {
		return fmt.Errorf("lz_prot: unaligned address %v", addr)
	}
	if length == 0 || mem.IsTTBR1(addr) {
		return fmt.Errorf("lz_prot: bad region")
	}
	if perm&PermUser == 0 {
		if _, ok := lp.pgts[pgt]; !ok {
			return fmt.Errorf("lz_prot: no page table %d", pgt)
		}
		if !lp.allowScalable && pgt != 0 {
			return fmt.Errorf("lz_prot: scalable isolation not enabled")
		}
	}
	end := addr + mem.VA(mem.PageAlignUp(length))
	for va := addr; va < end; {
		pa, kdesc, size, err := lp.kernelFrame(va)
		if err != nil {
			return err
		}
		base := va
		if size == mem.HugePageSize {
			base = mem.VA(uint64(va) &^ uint64(mem.HugePageMask))
		}

		attrs := overlayAttrs(kdesc, perm)
		info := lp.protected[base]
		switch {
		case perm&PermUser != 0:
			// PAN domain: user+global bits in every table (§6.1).
			lp.unmapEverywhere(base)
			lp.traceCodeInval(base, "lz_prot PAN-domain remap")
			info = &protInfo{pgts: map[int]int{}, perm: perm, user: true}
			for id := range lp.pgts {
				info.pgts[id] = perm
			}
			if err := lp.mapUnprotected(base, pa, size, attrs); err != nil {
				return err
			}
		case info != nil && !info.user:
			// Already protected: attach to an additional page table,
			// possibly with a different permission overlay — "pages
			// belonging to the same domain can be mapped by multiple
			// page tables, allowing different permission overlays. For
			// example, JIT code pages can switch between writable and
			// executable permissions via two page tables" (§6.1).
			info.pgts[pgt] = perm
			attrs |= mem.AttrNG
			if err := lp.mapIntoPGT(lp.pgts[pgt], base, pa, size, attrs); err != nil {
				return err
			}
			lp.kern.CPU.TLB.InvalidateVA(lp.vm.VMID, base)
			lp.traceCodeInval(base, "lz_prot overlay attach")
		default:
			// First protection of the page: withdraw it from every
			// table, then attach it to the target one.
			lp.unmapEverywhere(base)
			lp.traceCodeInval(base, "lz_prot first protection")
			info = &protInfo{pgts: map[int]int{pgt: perm}, perm: perm}
			attrs |= mem.AttrNG // protected pages are ASID-private
			if err := lp.mapIntoPGT(lp.pgts[pgt], base, pa, size, attrs); err != nil {
				return err
			}
		}
		lp.protected[base] = info
		lp.kern.CPU.Charge(4 * lp.kern.Prof.MemAccessCost) // PTE rewrite cost
		va = base + mem.VA(size)
	}
	lp.lz.observe("lz_prot", lp)
	return nil
}

// overlayAttrs computes stage-1 attributes for a protected page: the
// overlay permissions intersected with the kernel's own mapping. Execute
// permission is never granted here — pages are mapped PXN until the
// sanitizer clears them on the first instruction fault (§6.3), including
// protected pages, so no view can run unchecked code.
func overlayAttrs(kdesc uint64, perm int) uint64 {
	attrs := uint64(mem.AttrUXN | mem.AttrSWLZProt | mem.AttrPXN)
	if perm&PermWrite == 0 || kdesc&mem.AttrAPRO != 0 {
		attrs |= mem.AttrAPRO
	}
	if perm&PermUser != 0 {
		attrs |= mem.AttrAPUser // PAN-gated
	}
	return attrs
}

// remapProtected reinstalls a protected multi-view page into every table
// listed in info, honouring each view's permission overlay. In executable
// state (exec=true) views with PermExec get X and every view is read-only;
// in writable state no view is executable and write permissions follow the
// overlays.
func (lp *LZProc) remapProtected(base mem.VA, pa mem.PA, size uint64, kdesc uint64, info *protInfo, exec bool) error {
	for id, perm := range info.pgts {
		attrs := uint64(mem.AttrUXN | mem.AttrSWLZProt | mem.AttrNG | mem.AttrPXN)
		if exec {
			attrs |= mem.AttrAPRO
			if perm&PermExec != 0 {
				attrs &^= mem.AttrPXN
			}
		} else if perm&PermWrite == 0 || kdesc&mem.AttrAPRO != 0 {
			attrs |= mem.AttrAPRO
		}
		if err := lp.mapIntoPGT(lp.pgts[id], base, pa, size, attrs); err != nil {
			return err
		}
	}
	return nil
}

// attachUserPagesTo propagates PAN-protected (user) pages into a freshly
// allocated table so PermUser regions stay visible in all tables. Pages are
// attached in ascending VA, so the table frames they allocate land at the
// same physical addresses on every run.
func (lp *LZProc) attachUserPagesTo(d *DomainPGT) error {
	var user []mem.VA
	for va, info := range lp.protected {
		if info.user {
			user = append(user, va)
		}
	}
	slices.Sort(user)
	for _, va := range user {
		info := lp.protected[va]
		pa, kdesc, size, err := lp.kernelFrame(va)
		if err != nil {
			return err
		}
		if err := lp.mapIntoPGT(d, va, pa, size, overlayAttrs(kdesc, info.perm)); err != nil {
			return err
		}
		info.pgts[d.ID] = info.perm
	}
	return nil
}

// Alloc implements lz_alloc: allocate a stage-1 page table that maps all
// unprotected memory (copied from the base table) plus the PAN-protected
// user pages, propagate the TTBR1-visible TTBRTab entry, and return its
// identifier (§6.1: "Each page table of a LightZone process can map all
// unprotected memory").
func (lp *LZProc) Alloc() (int, error) {
	if !lp.allowScalable {
		return -1, fmt.Errorf("lz_alloc: scalable isolation not enabled (lz_enter allow_scalable=false)")
	}
	d, err := lp.newPGT()
	if err != nil {
		return -1, err
	}
	if err := lp.populatePGT(d); err != nil {
		return -1, err
	}
	if err := lp.writeTTBRTab(d.ID, d.TTBR()); err != nil {
		return -1, err
	}
	lp.kern.CPU.Charge(lp.kern.Prof.HandlerDispatchCost)
	lp.lz.observe("lz_alloc", lp)
	return d.ID, nil
}

// populatePGT fills a fresh domain table: the unprotected (global)
// mappings are copied from the base table — pages attached to protected
// domains carry the software marker and are skipped — and the
// PAN-protected user pages are re-attached. Shared by the lightzone and
// granule backends, which differ only in what they charge and publish
// around the copy.
func (lp *LZProc) populatePGT(d *DomainPGT) error {
	base := lp.pgts[0]
	var copyErr error
	if err := base.S1.Visit(func(va mem.VA, desc uint64, size uint64) bool {
		if desc&mem.AttrSWLZProt != 0 {
			return true
		}
		attrs := desc &^ mem.OAMask &^ (mem.DescValid | mem.DescTable | mem.AttrAF)
		if size == mem.HugePageSize {
			copyErr = d.S1.MapBlock(va, mem.PA(desc&mem.OAMask), attrs)
		} else {
			copyErr = d.S1.Map(va, mem.PA(desc&mem.OAMask), attrs)
		}
		lp.kern.CPU.Charge(2 * lp.kern.Prof.MemAccessCost)
		return copyErr == nil
	}); err != nil {
		return err
	}
	if copyErr != nil {
		return copyErr
	}
	return lp.attachUserPagesTo(d)
}

// Free implements lz_free: destroy a page table. The base table (0) and
// the currently installed table cannot be freed.
func (lp *LZProc) Free(pgt int) error {
	d, ok := lp.pgts[pgt]
	if !ok || pgt == 0 {
		return fmt.Errorf("lz_free: bad page table %d", pgt)
	}
	if cur, ok := lp.currentPGT(); ok && cur == d {
		return fmt.Errorf("lz_free: page table %d is active", pgt)
	}
	for va, info := range lp.protected {
		delete(info.pgts, pgt)
		if len(info.pgts) == 0 {
			delete(lp.protected, va)
		}
	}
	delete(lp.byRoot, d.S1.Root())
	delete(lp.pgts, pgt)
	// Return the ASID to the kernel allocator (which performs the scoped
	// TLB shootdown) and the domain id to the free list, so sustained
	// alloc/free churn can never exhaust either space.
	lp.kern.FreeASID(lp.vm.VMID, d.S1.ASID())
	lp.freePGT = append(lp.freePGT, pgt)
	if err := lp.writeTTBRTab(pgt, 0); err != nil {
		return err
	}
	d.S1.Free()
	lp.lz.observe("lz_free", lp)
	return nil
}
