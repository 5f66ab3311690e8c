package mem

// TLBEntry caches a completed (stage-1 [+ stage-2]) translation.
type TLBEntry struct {
	PABase     PA     // output base of the mapping
	S1Desc     uint64 // stage-1 leaf attributes
	S2Desc     uint64 // stage-2 leaf attributes (0 when stage-2 disabled)
	BlockShift uint   // mapping size (12 or 21)
	HasS2      bool
}

// TLB entries are keyed by a single uint64: a canonical 36-bit page index
// (valid VAs have their upper 16 bits equal, so bits 12..47 identify the
// page) in the low bits, and an interned translation-context id — one per
// distinct (VMID, ASID) pair or per-VMID global context — in the high bits.
// Integer keys let every probe use the runtime's fast-path uint64 map,
// which is substantially cheaper on the host than hashing a multi-field
// struct on the instruction-fetch path.
const (
	tlbPageBits = 36
	tlbPageMask = 1<<tlbPageBits - 1
)

// tlbCtxMemoSlots sizes TLB.ctxMemo; a power of two.
const tlbCtxMemoSlots = 256

// ctxKey identifies a translation context before interning.
type ctxKey struct {
	vmid   uint16
	asid   uint16
	global bool
}

// TLB is a unified, ASID- and VMID-tagged translation cache with FIFO
// replacement. Global (nG==0) stage-1 entries match any ASID of their VMID —
// the property LightZone exploits so that TTBR-based domain switches leave
// the TLB warm for unprotected memory (§8.2).
type TLB struct {
	entries  map[uint64]TLBEntry
	order    []uint64
	capacity int

	// Context interning: (vmid, asid, global) -> pre-shifted context id.
	ctxIDs  map[ctxKey]uint64
	ctxList []ctxKey // index = context id, for invalidation predicates
	// Direct-mapped context memo, indexed by the ASID's low bits. The
	// kernel hands out ASIDs densely from 1, so each domain of a 128-domain
	// cell keeps its interned ids in a slot of its own across call-gate
	// switches instead of falling through to the struct-keyed ctxIDs map.
	ctxMemo [tlbCtxMemoSlots]tlbCtxMemo

	Hits   uint64
	Misses uint64

	// gen is the TLB generation: it advances on every mutation of the entry
	// set — Insert (which covers FIFO evictions), every Invalidate* flavour,
	// and context compaction. Host-side micro-TLBs snapshot the generation
	// when they cache a translation and treat any advance as "my entry may
	// no longer be in the real TLB", so a fastpath hit is only possible when
	// Lookup would provably also hit. The counter is host-only state: it
	// never feeds cycles or stats.
	gen uint64

	// Stats, when set, mirrors hit/miss counts into the shared per-vCPU
	// pipeline stats.
	Stats *Stats

	// Code, when set, receives a code-generation epoch bump alongside every
	// invalidation. TLB invalidation is the chokepoint all break-before-make,
	// W^X and unmap flows already pass through, so piggybacking here makes
	// the decoded-block cache observe exactly the same events real hardware
	// would synchronize on.
	Code *CodeEpochs
}

// NewTLB creates a TLB with the given entry capacity.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 512
	}
	// Containers are created lazily on first insert: fleet sweeps and
	// zygote forks create machines by the thousand, most of whose TLBs
	// never fill, so even empty maps would dominate construction.
	return &TLB{capacity: capacity}
}

func pageOf(va VA) uint64 { return uint64(va) >> PageShift & tlbPageMask }

// ctxFor interns a translation context and returns its pre-shifted id.
func (t *TLB) ctxFor(k ctxKey) uint64 {
	id, ok := t.ctxIDs[k]
	if !ok {
		if t.ctxIDs == nil {
			t.ctxIDs = make(map[ctxKey]uint64)
		}
		id = uint64(len(t.ctxList)) << tlbPageBits
		t.ctxIDs[k] = id
		t.ctxList = append(t.ctxList, k)
	}
	return id
}

// tlbCtxMemo caches one (vmid, asid) pair's interned context ids.
type tlbCtxMemo struct {
	vmid   uint16
	asid   uint16
	valid  bool
	tagged uint64
	global uint64
}

// contexts refreshes the cached interned ids for (vmid, asid).
func (t *TLB) contexts(vmid, asid uint16) (tagged, global uint64) {
	m := &t.ctxMemo[asid&uint16(len(t.ctxMemo)-1)]
	if !m.valid || vmid != m.vmid || asid != m.asid {
		m.tagged = t.ctxFor(ctxKey{vmid: vmid, asid: asid})
		m.global = t.ctxFor(ctxKey{vmid: vmid, global: true})
		m.vmid, m.asid, m.valid = vmid, asid, true
	}
	return m.tagged, m.global
}

// Lookup finds a cached translation for va under (vmid, asid).
func (t *TLB) Lookup(vmid, asid uint16, va VA) (TLBEntry, bool) {
	tagged, global := t.contexts(vmid, asid)
	// 2MB block entries are stored under their 2MB-aligned page key; probe
	// the 4KB keys first (the common hit), then the block keys.
	pg := pageOf(va)
	e, ok := t.entries[tagged|pg]
	if !ok {
		e, ok = t.entries[global|pg]
	}
	if !ok {
		bpg := pageOf(VA(uint64(va) &^ uint64(HugePageMask)))
		if e, ok = t.entries[tagged|bpg]; ok && e.BlockShift != HugePageShift {
			ok = false
		}
		if !ok {
			if e, ok = t.entries[global|bpg]; ok && e.BlockShift != HugePageShift {
				ok = false
			}
		}
	}
	if ok {
		t.Hits++
		if t.Stats != nil {
			t.Stats.TLBHits++
		}
		return e, true
	}
	t.Misses++
	if t.Stats != nil {
		t.Stats.TLBMisses++
	}
	return TLBEntry{}, false
}

// Gen returns the current TLB generation (see the gen field). Observation
// only; used by micro-TLB gates and coherence checkers.
func (t *TLB) Gen() uint64 { return t.gen }

// NoteFastHit records a hit taken by a host-side micro-TLB on behalf of
// this TLB. The micro-TLB's generation/context gate guarantees the entry is
// still cached here, so the elided Lookup would have hit: mirroring exactly
// Lookup's hit-path counter updates keeps Hits/Misses and the shared Stats
// byte-identical with the fastpaths disabled.
func (t *TLB) NoteFastHit() {
	t.Hits++
	if t.Stats != nil {
		t.Stats.TLBHits++
	}
}

// NoteFastHits records n hits at once — the bulk form used by the trace
// runner, which batches its per-instruction fetch hits and flushes them
// before any observation point. Identical to n NoteFastHit calls.
func (t *TLB) NoteFastHits(n uint64) {
	t.Hits += n
	if t.Stats != nil {
		t.Stats.TLBHits += n
	}
}

// Peek finds a cached translation for va under (vmid, asid) without
// touching hit/miss counters, the mirrored Stats, or the context intern
// tables — pure observation for trace guards that must prove "Lookup would
// hit" without perturbing the emulated surface. The probe order mirrors
// Lookup exactly: tagged 4KB, global 4KB, tagged 2MB block, global 2MB
// block.
func (t *TLB) Peek(vmid, asid uint16, va VA) (TLBEntry, bool) {
	tagged, tok := t.ctxIDs[ctxKey{vmid: vmid, asid: asid}]
	global, gok := t.ctxIDs[ctxKey{vmid: vmid, global: true}]
	pg := pageOf(va)
	if tok {
		if e, ok := t.entries[tagged|pg]; ok {
			return e, true
		}
	}
	if gok {
		if e, ok := t.entries[global|pg]; ok {
			return e, true
		}
	}
	bpg := pageOf(VA(uint64(va) &^ uint64(HugePageMask)))
	if tok {
		if e, ok := t.entries[tagged|bpg]; ok && e.BlockShift == HugePageShift {
			return e, true
		}
	}
	if gok {
		if e, ok := t.entries[global|bpg]; ok && e.BlockShift == HugePageShift {
			return e, true
		}
	}
	return TLBEntry{}, false
}

// Insert caches a translation. Stage-1 global mappings (nG clear) are
// inserted ASID-agnostic.
//
// The generation advances only when an existing entry is removed (capacity
// eviction) or replaced with different contents: those are the mutations
// that can change the result of a Lookup that previously hit. Adding a new
// key cannot invalidate any memoised translation, so cold-TLB fill phases
// leave the host micro-TLBs live instead of staling them on every walk.
func (t *TLB) Insert(vmid, asid uint16, va VA, e TLBEntry) {
	tagged, global := t.contexts(vmid, asid)
	key := tagged
	if e.S1Desc&AttrNG == 0 {
		key = global
	}
	if e.BlockShift == HugePageShift {
		key |= pageOf(VA(uint64(va) &^ uint64(HugePageMask)))
	} else {
		key |= pageOf(va)
	}
	if old, exists := t.entries[key]; exists {
		if old != e {
			t.gen++
		}
	} else {
		if t.entries == nil {
			t.entries = make(map[uint64]TLBEntry)
		}
		for len(t.entries) >= t.capacity {
			victim := t.order[0]
			t.order = t.order[1:]
			delete(t.entries, victim)
			t.gen++
		}
		t.order = append(t.order, key)
	}
	t.entries[key] = e
}

// InvalidateAll drops every entry (TLBI VMALLE1-style, full cost). The
// context intern tables are reset with the entries: nothing references the
// old ids anymore, and without the reset every (VMID, ASID) pair ever seen
// would stay interned forever across process churn.
func (t *TLB) InvalidateAll() {
	t.gen++
	t.entries = nil // recreated on the next insert (also sheds map growth)
	t.order = t.order[:0]
	clear(t.ctxIDs)
	t.ctxList = t.ctxList[:0]
	clear(t.ctxMemo[:])
	if t.Code != nil {
		t.Code.BumpAll()
	}
}

// InvalidateVMID drops all entries of a virtual machine and releases the
// VM's interned contexts (its ASIDs are free for reuse, so keeping them
// interned would leak an id per recycled pair).
func (t *TLB) InvalidateVMID(vmid uint16) {
	t.invalidate(func(k uint64) bool {
		return t.ctxList[k>>tlbPageBits].vmid == vmid
	})
	t.compactContexts(func(c ctxKey) bool { return c.vmid == vmid })
	if t.Code != nil {
		t.Code.BumpAll()
	}
}

// compactContexts removes interned contexts matched by drop and renumbers
// the survivors, rewriting the context bits of every cached entry key.
// Callers must already have invalidated all entries of dropped contexts.
func (t *TLB) compactContexts(drop func(ctxKey) bool) {
	t.gen++
	remap := make([]uint64, len(t.ctxList))
	kept := t.ctxList[:0]
	for i, c := range t.ctxList {
		if drop(c) {
			delete(t.ctxIDs, c)
			continue
		}
		remap[i] = uint64(len(kept)) << tlbPageBits
		t.ctxIDs[c] = remap[i]
		kept = append(kept, c)
	}
	t.ctxList = kept
	clear(t.ctxMemo[:])
	// Two-phase rewrite: a kept context's new id can equal another kept
	// context's old id, so moving entries in place while scanning can clobber
	// a live entry that shares the page bits. Pull every moving entry out of
	// the map first, then reinsert under the remapped keys.
	moved := make(map[uint64]TLBEntry)
	for i, k := range t.order {
		nk := remap[k>>tlbPageBits] | k&tlbPageMask
		if nk == k {
			continue
		}
		moved[nk] = t.entries[k]
		delete(t.entries, k)
		t.order[i] = nk
	}
	for nk, e := range moved {
		t.entries[nk] = e
	}
}

// InvalidateASID drops non-global entries of (vmid, asid).
func (t *TLB) InvalidateASID(vmid, asid uint16) {
	t.invalidate(func(k uint64) bool {
		c := t.ctxList[k>>tlbPageBits]
		return c.vmid == vmid && !c.global && c.asid == asid
	})
	if t.Code != nil {
		t.Code.BumpAll()
	}
}

// InvalidateVA drops all entries mapping the page of va in vmid: 4KB
// entries keyed by va's own page, and 2MB block entries keyed by the
// region-aligned page. The BlockShift check keeps an unrelated 4KB entry
// that happens to sit at the region base alive when va points elsewhere in
// the region.
func (t *TLB) InvalidateVA(vmid uint16, va VA) {
	page := pageOf(va)
	blockPage := pageOf(VA(uint64(va) &^ uint64(HugePageMask)))
	t.invalidate(func(k uint64) bool {
		if t.ctxList[k>>tlbPageBits].vmid != vmid {
			return false
		}
		pg := k & tlbPageMask
		if t.entries[k].BlockShift == HugePageShift {
			return pg == blockPage
		}
		return pg == page
	})
	if t.Code != nil {
		t.Code.BumpVA(va)
	}
}

func (t *TLB) invalidate(match func(uint64) bool) {
	t.gen++
	kept := t.order[:0]
	for _, k := range t.order {
		if match(k) {
			delete(t.entries, k)
		} else {
			kept = append(kept, k)
		}
	}
	t.order = kept
}

// Clone deep-copies the architectural TLB for a forked machine: the entry
// set, FIFO order, context intern tables, memo, generation, and hit/miss
// counters all transfer exactly — TLB warmth is digest-visible through the
// hit/miss counts, so a fork must resume from precisely the state a cold
// boot reaches. stats and code re-point the mirrors at the fork's own
// Stats/CodeEpochs so counter updates never cross machines.
func (t *TLB) Clone(stats *Stats, code *CodeEpochs) *TLB {
	c := &TLB{
		order:    append([]uint64(nil), t.order...),
		capacity: t.capacity,
		ctxList:  append([]ctxKey(nil), t.ctxList...),
		ctxMemo:  t.ctxMemo,
		Hits:     t.Hits,
		Misses:   t.Misses,
		gen:      t.gen,
		Stats:    stats,
		Code:     code,
	}
	// Maps are only built when the source holds entries: cloning a cold
	// TLB (the zygote fork path) allocates no containers at all.
	if len(t.entries) > 0 {
		c.entries = make(map[uint64]TLBEntry, len(t.entries))
		for k, e := range t.entries {
			c.entries[k] = e
		}
	}
	if len(t.ctxIDs) > 0 {
		c.ctxIDs = make(map[ctxKey]uint64, len(t.ctxIDs))
		for k, id := range t.ctxIDs {
			c.ctxIDs[k] = id
		}
	}
	return c
}

// Len returns the number of cached entries.
func (t *TLB) Len() int { return len(t.entries) }

// Visit calls fn for every cached entry in insertion (FIFO) order, decoding
// each packed key back into its translation context and page-aligned VA
// (canonicalized: high-half pages get their upper bits sign-extended).
// Purely observational — it never touches the hit/miss counters or the
// mirrored pipeline Stats, so verifiers can enumerate the TLB without
// perturbing any measurement. Returns false from fn to stop early.
func (t *TLB) Visit(fn func(vmid, asid uint16, global bool, va VA, e TLBEntry) bool) {
	for _, k := range t.order {
		c := t.ctxList[k>>tlbPageBits]
		va := VA((k & tlbPageMask) << PageShift)
		if va&(1<<(VABits-1)) != 0 {
			va |= ^(VA(1)<<VABits - 1)
		}
		if !fn(c.vmid, c.asid, c.global, va, t.entries[k]) {
			return
		}
	}
}

// ContextCount returns the number of interned translation contexts — a
// diagnostic for the intern tables' growth (they must stay bounded by the
// live (VMID, ASID) population, not by historical churn).
func (t *TLB) ContextCount() int { return len(t.ctxList) }

// ResetStats clears hit/miss counters, including the mirrored pipeline
// Stats, so the TLB's own counters and lzinspect/trace summaries never
// disagree after a reset.
func (t *TLB) ResetStats() {
	t.Hits, t.Misses = 0, 0
	if t.Stats != nil {
		t.Stats.TLBHits, t.Stats.TLBMisses = 0, 0
	}
}
