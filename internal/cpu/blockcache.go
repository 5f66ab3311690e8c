package cpu

import (
	"sort"
	"sync/atomic"

	"lightzone/internal/arm64"
	"lightzone/internal/arm64/absint"
	"lightzone/internal/mem"
)

// maxCachedBlocks bounds the decoded-block cache: the insert that would
// exceed it clears the whole cache first (reset), like the context intern
// tables below. The largest workload, a 10,000-switch 128-domain Table 5
// cell, holds 1,289 blocks.
const maxCachedBlocks = 8192

// dblock is a decoded straight-line block: the Decode results for
// consecutive instruction words within one page, ending at the first
// terminator (branch, exception, system op) or the page boundary.
type dblock struct {
	// insns is the block's body. It is never written after construction,
	// so the children of one zygote share a body through its code
	// template (see CodeTemplate); everything else here is per machine.
	insns []arm64.Insn
	pa    mem.PA // physical address of the first instruction when built
	page  uint64 // VA >> PageShift
	snap  uint64 // code-epoch snapshot when the build started
	// checkedGen is the epoch generation at which snap was last verified to
	// match the page's current epoch. When the global generation has not
	// moved since, no epoch can have moved either, so enter skips the
	// per-page Snapshot probes — a pure host-side elision.
	checkedGen uint64
	// proof is the lazily derived static block proof (see proofaudit.go;
	// all access is confined to that file by tools/lint). Its lifetime is
	// the block's: both are dropped when the page's code epoch moves.
	proof *absint.Proof
	// hot counts validated entries toward the trace-stitch threshold (see
	// trace.go). Saturates at the threshold; reset when a transient stitch
	// failure or trace invalidation makes a retry worthwhile.
	hot uint32
}

// Blocks are addressed by execution context and start address: (VMID, ASID,
// page, offset), mirroring the TLB's tagging so blocks from different
// address spaces never alias. mmuOff separates flat (stage-1 off) fetches
// from translated ones that happen to share an ASID value. Like the TLB,
// the context is interned and the key packed into a single uint64 — the
// canonical 36-bit page index and the insn-aligned page offset in the low
// 46 bits, the interned context id above — so every probe on the fetch path
// uses the runtime's fast uint64 map.
type blockKey = uint64

const (
	blockPageBits = 36
	blockOffBits  = 10 // 4KB page / 4-byte instructions
	blockCtxShift = blockPageBits + blockOffBits
)

// blockCtx identifies a block's translation context before interning.
type blockCtx struct {
	vmid   uint16
	asid   uint16
	mmuOff bool
}

// blockCursor replays an entered block instruction by instruction. It is
// dropped on any control-flow discontinuity (PC != expect), at block end,
// on exception delivery, and when a store hits the block's page.
type blockCursor struct {
	blk    *dblock
	idx    int
	expect uint64
}

// BlockCache is the decoded-basic-block cache of the execution pipeline.
// Blocks are built lazily as instructions execute for the first time and
// validated against per-page code-generation epochs (mem.CodeEpochs) on
// every block entry, so any W^X flip, break-before-make, lz_prot change,
// stage-2 remap or emulated store invalidates affected blocks before the
// next fetch. The cache only elides host-side work (the word read and
// re-decode); the architectural fetch translation still runs per
// instruction, keeping emulated cycles and TLB behaviour bit-identical.
type BlockCache struct {
	enabled bool
	blocks  map[blockKey]*dblock
	// codePages counts completed blocks per page so the store hook can
	// skip epoch bumps for pages that hold no cached code.
	codePages map[uint64]int
	epochs    *mem.CodeEpochs
	stats     *mem.Stats

	// Context interning (see blockKey): (vmid, asid, mmuOff) -> pre-shifted
	// context id.
	ctxIDs  map[blockCtx]uint64
	ctxList []blockCtx // index = context id, for key decoding
	// Direct-mapped intern memo in front of ctxIDs, indexed by the ASID's
	// low bits: gate-heavy workloads alternate between domain ASIDs on
	// every crossing, and the kernel hands them out densely from 1, so
	// each domain of a 128-domain cell keeps a slot of its own.
	ctxMemo [blockCtxMemoSlots]blockCtxMemo

	// onReset is the invalidation hook for dependents (the trace cache): it
	// fires after the whole cache is dropped (interned context ids dangle,
	// so any key derived from them does too).
	onReset func()

	// In-progress block builder. The build is abandoned (never inserted)
	// if the page's epoch moves between build start and finalize.
	building bool
	bkey     blockKey
	bpa      mem.PA
	bpage    uint64
	bsnap    uint64
	bexpect  uint64
	binsns   []arm64.Insn

	// tmpl is the code template of the zygote this machine was forked
	// from, or nil: a miss adopts a body from it instead of building one
	// when the words at the body's PA check equal (adopt).
	tmpl *CodeTemplate
}

// decodeCacheDefault seeds the enabled state of newly created block caches,
// so tools (lzbench -interp, bench's oracle) can configure machines booted
// deep inside sweeps. Off, no block is ever cached, so Run is the plain
// Step loop.
var decodeCacheDefault atomic.Bool

func init() { decodeCacheDefault.Store(true) }

// SetDecodeCacheDefault sets whether new vCPUs start with the decoded-block
// cache enabled.
func SetDecodeCacheDefault(on bool) { decodeCacheDefault.Store(on) }

// DecodeCacheDefault reports the current default for new vCPUs.
func DecodeCacheDefault() bool { return decodeCacheDefault.Load() }

func newBlockCache(epochs *mem.CodeEpochs, stats *mem.Stats) *BlockCache {
	// The block and intern maps are created on first insert: machines that
	// never execute (zygotes, and children at the moment they fork) carry
	// an empty cache without paying for its containers.
	return &BlockCache{
		enabled: decodeCacheDefault.Load(),
		epochs:  epochs,
		stats:   stats,
	}
}

// ctxFor interns a block translation context and returns its pre-shifted
// id. The intern tables are a pure host-side cache: if context churn (VMID
// or ASID recycling across many processes) ever grows them past the block
// cap, the whole cache is dropped and interning restarts — costing only
// re-decodes.
func (d *BlockCache) ctxFor(c blockCtx) uint64 {
	m := &d.ctxMemo[c.asid&uint16(len(d.ctxMemo)-1)]
	if m.ok && c == m.ctx {
		return m.id
	}
	id, ok := d.ctxIDs[c]
	if !ok {
		if len(d.ctxList) >= maxCachedBlocks {
			d.reset()
		}
		if d.ctxIDs == nil {
			d.ctxIDs = make(map[blockCtx]uint64)
		}
		id = uint64(len(d.ctxList)) << blockCtxShift
		d.ctxIDs[c] = id
		d.ctxList = append(d.ctxList, c)
	}
	*m = blockCtxMemo{ctx: c, id: id, ok: true}
	return id
}

// blockCtxMemoSlots sizes BlockCache.ctxMemo; a power of two.
const blockCtxMemoSlots = 256

// blockCtxMemo caches one interned block-translation context.
type blockCtxMemo struct {
	ctx blockCtx
	id  uint64
	ok  bool
}

// SetDecodeCache turns the cache on or off (off: every instruction is
// fetched and decoded from memory, the seed pipeline). Used by the
// cycle-identity tests and benchmarks; either way drops all cached state.
func (c *VCPU) SetDecodeCache(enabled bool) {
	c.Decoded.enabled = enabled
	c.DropDecodedBlocks()
}

// DecodeCacheEnabled reports whether the decoded-block cache is active.
func (c *VCPU) DecodeCacheEnabled() bool { return c.Decoded.enabled }

// DecodeCacheLen returns the number of cached blocks.
func (c *VCPU) DecodeCacheLen() int { return len(c.Decoded.blocks) }

// CachedBlockInfo describes one decoded block for verifiers: its keying
// context, the raw instruction words it decoded from, and whether its
// epoch snapshot still matches the page's current epoch. EpochOK==false
// blocks are benign — they are discarded on next entry — so coherence
// audits only cross-check the bytes of blocks the pipeline would replay.
type CachedBlockInfo struct {
	VMID    uint16
	ASID    uint16
	MMUOff  bool
	Page    uint64 // VA >> PageShift
	Off     uint16 // byte offset of the first instruction within the page
	EpochOK bool
	Raw     []uint32
}

// DecodedBlocks returns a deterministic snapshot of the block cache (sorted
// by context, page, offset). Observation-only: no stats or epochs move.
func (c *VCPU) DecodedBlocks() []CachedBlockInfo {
	d := c.Decoded
	out := make([]CachedBlockInfo, 0, len(d.blocks))
	for k, b := range d.blocks {
		ctx := d.ctxList[k>>blockCtxShift]
		info := CachedBlockInfo{
			VMID:    ctx.vmid,
			ASID:    ctx.asid,
			MMUOff:  ctx.mmuOff,
			Page:    b.page,
			Off:     uint16(k & (1<<blockOffBits - 1) << 2),
			EpochOK: d.epochs.Snapshot(b.page) == b.snap,
			Raw:     make([]uint32, len(b.insns)),
		}
		for i, in := range b.insns {
			info.Raw[i] = in.Raw
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.VMID != b.VMID {
			return a.VMID < b.VMID
		}
		if a.ASID != b.ASID {
			return a.ASID < b.ASID
		}
		if a.MMUOff != b.MMUOff {
			return !a.MMUOff
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Off < b.Off
	})
	return out
}

func (d *BlockCache) reset() {
	clear(d.blocks)
	clear(d.codePages)
	clear(d.ctxIDs)
	d.ctxList = d.ctxList[:0]
	clear(d.ctxMemo[:])
	d.building = false
	if d.onReset != nil {
		d.onReset()
	}
}

// DropDecodedBlocks clears the decoded-block cache — and with it every
// stitched trace — exactly as reaching maxCachedBlocks does, and kills the
// block cursor. Host-side state only: the chaos engine fires it mid-run to
// prove dropped blocks rebuild bit-identically (cycles, stats on the
// emulated surface, and architectural state all unchanged).
func (c *VCPU) DropDecodedBlocks() {
	c.cur = blockCursor{}
	c.Decoded.reset()
}

// keyFor derives the packed cache key for a fetch at pc under c's current
// translation context, mirroring Translate's TTBR/ASID/VMID selection.
func (d *BlockCache) keyFor(c *VCPU, pc uint64) blockKey {
	ctx := blockCtx{vmid: c.CurrentVMID()}
	if c.sys[arm64.SCTLREL1]&SCTLRM == 0 {
		ctx.mmuOff = true
	} else {
		ttbr := c.sys[arm64.TTBR0EL1]
		if mem.IsTTBR1(mem.VA(pc)) {
			ttbr = c.sys[arm64.TTBR1EL1]
		}
		ctx.asid = TTBRASID(ttbr)
	}
	page := pc >> mem.PageShift & (1<<blockPageBits - 1)
	off := pc & mem.PageMask >> 2
	return d.ctxFor(ctx) | page<<blockOffBits | off
}

// enter returns the valid cached block starting at pc, or nil. A block
// whose page epoch moved since the build is discarded (stale).
func (d *BlockCache) enter(c *VCPU, pc uint64) *dblock {
	if !d.enabled {
		return nil
	}
	key := d.keyFor(c, pc)
	b := d.blocks[key]
	if b == nil {
		return nil
	}
	gen := d.epochs.Gen()
	if b.checkedGen == gen {
		// No epoch of any granularity moved since the last validation, so
		// the per-page Snapshot cannot have changed either.
		c.noteBlockHot(b, key, pc)
		return b
	}
	if d.epochs.Snapshot(b.page) != b.snap {
		delete(d.blocks, key)
		d.dropPageRef(b.page)
		d.stats.CodeStale++
		return nil
	}
	b.checkedGen = gen
	c.noteBlockHot(b, key, pc)
	return b
}

// noteDecoded feeds one freshly decoded instruction, fetched from pa, to
// the block builder. Consecutive calls with sequential PCs on one page grow
// the pending block; a terminator or page boundary completes it.
func (d *BlockCache) noteDecoded(c *VCPU, pc uint64, pa mem.PA, in arm64.Insn) {
	if !d.enabled {
		return
	}
	pg := pc >> mem.PageShift
	if !d.building || pc != d.bexpect || pg != d.bpage {
		d.building = true
		d.bkey = d.keyFor(c, pc)
		d.bpa = pa
		d.bpage = pg
		d.bsnap = d.epochs.Snapshot(pg)
		d.binsns = d.binsns[:0]
	}
	d.binsns = append(d.binsns, in)
	d.bexpect = pc + arm64.InsnBytes
	if in.Op.Terminates() || (pc+arm64.InsnBytes)>>mem.PageShift != pg {
		d.finalize()
	}
}

// finalize inserts the pending block unless its page's epoch moved during
// the build (a store or permission flip raced the block; the partial
// decodes may mix pre- and post-write words, so the block is discarded).
func (d *BlockCache) finalize() {
	d.building = false
	if len(d.binsns) == 0 || d.epochs.Snapshot(d.bpage) != d.bsnap {
		return
	}
	if len(d.blocks) >= maxCachedBlocks {
		// Clear at the cap. The pending key's interned context dies with
		// the reset, so the pending block goes too and re-decodes on its
		// next execution.
		d.reset()
		return
	}
	d.insert(d.bkey, &dblock{
		insns:      append([]arm64.Insn(nil), d.binsns...),
		pa:         d.bpa,
		page:       d.bpage,
		snap:       d.bsnap,
		checkedGen: d.epochs.Gen(),
	})
	d.stats.CodeBlocks++
}

// insert caches b under key and counts its page as holding code.
func (d *BlockCache) insert(key blockKey, b *dblock) {
	if _, exists := d.blocks[key]; !exists {
		if d.blocks == nil {
			var n int
			if d.tmpl != nil {
				n = d.tmpl.nBlocks
			}
			d.blocks = make(map[blockKey]*dblock, n)
			d.codePages = make(map[uint64]int)
		}
		d.codePages[b.page]++
	}
	d.blocks[key] = b
}

// adopt caches and returns the template's body for a fetch at pc whose
// first word, read from pa, is word — or returns nil, and the caller
// decodes and builds as without a template, when there is no template, a
// build in progress would grow at pc, the template holds no body at pa, or
// the words at pa are not the body's. The word check is the whole proof:
// decode is a pure function of the word, and a block's extent (to its
// first terminator or the page end) a function of its words, so a body
// whose words equal this machine's at pa is the block a build at pc would
// make. It reads only the page the fetch just read, so it materializes no
// frame. The adopted block takes this machine's own epoch snapshot, so an
// epoch bump retires it as it retires a built one.
func (d *BlockCache) adopt(c *VCPU, pc uint64, pa mem.PA, word uint32) *dblock {
	t := d.tmpl
	if t == nil || !d.enabled {
		return nil
	}
	pg := pc >> mem.PageShift
	if d.building && pc == d.bexpect && pg == d.bpage {
		return nil
	}
	body := t.blocks[pa]
	if len(body) == 0 || body[0].Raw != word || len(d.blocks) >= maxCachedBlocks {
		return nil
	}
	for i := 1; i < len(body); i++ {
		if w, err := c.Mem.ReadU32(pa + mem.PA(i*arm64.InsnBytes)); err != nil || w != body[i].Raw {
			return nil
		}
	}
	// Adoption stands in for the build that would start at pc, and that
	// start abandons any build in progress.
	d.building = false
	key := d.keyFor(c, pc)
	b := &dblock{insns: body, pa: pa, page: pg, snap: d.epochs.Snapshot(pg), checkedGen: d.epochs.Gen()}
	d.insert(key, b)
	d.stats.CodeAdopted++
	return b
}

// CodeTemplate is the decoded code a zygote's first finished child
// publishes for the children forked after it (DESIGN §14): block bodies
// keyed by the physical address of their first instruction, and stitched
// traces keyed by entry PC (see trace.go). It is immutable once built, so
// children on any goroutine read it without locks, and it holds nothing
// per machine: a child adopts a body only after checking its own words at
// that PA, and keeps its own epoch snapshots, proofs and hot counters.
type CodeTemplate struct {
	prof   *arm64.Profile // traces hold the publisher's fused MRS costs
	blocks map[mem.PA][]arm64.Insn
	traces map[uint64][]*traceTemplate

	// nBlocks and nTraces are the publisher's cache sizes: an adopting
	// child makes its block and trace maps that large at their first
	// insert, so they do not rehash as adoption fills them.
	nBlocks, nTraces int
}

// CodeTemplate builds a template of this machine's code caches, or returns
// nil when the decode cache or traces are off or no block is cached. It
// holds one body per PA: of the live blocks that start there, the one with
// the least cache key, so a deterministic run builds the same template
// every time. Bounded by the caches it copies (maxCachedBlocks bodies,
// maxTraces traces); nothing of the machine moves.
func (c *VCPU) CodeTemplate() *CodeTemplate {
	d := c.Decoded
	if !d.enabled || !c.TracesEnabled() || len(d.blocks) == 0 {
		return nil
	}
	type pick struct {
		key  blockKey
		body []arm64.Insn
	}
	picks := make(map[mem.PA]pick, len(d.blocks))
	for k, b := range d.blocks {
		if d.epochs.Snapshot(b.page) != b.snap {
			continue
		}
		if p, ok := picks[b.pa]; ok && p.key < k {
			continue
		}
		picks[b.pa] = pick{k, b.insns}
	}
	t := &CodeTemplate{
		prof: c.Prof, blocks: make(map[mem.PA][]arm64.Insn, len(picks)),
		nBlocks: len(d.blocks), nTraces: c.TraceCacheLen(),
	}
	for pa, p := range picks {
		t.blocks[pa] = p.body
	}
	t.traces = c.templateTraces(t.blocks)
	return t
}

// SetCodeTemplate attaches a zygote's code template to this machine, or
// detaches it (nil). Only the pointer is kept; the cache's containers are
// made at their first insert, sized from the template.
func (c *VCPU) SetCodeTemplate(t *CodeTemplate) { c.Decoded.tmpl = t }

func (d *BlockCache) dropPageRef(pg uint64) {
	if n := d.codePages[pg]; n > 1 {
		d.codePages[pg] = n - 1
	} else {
		delete(d.codePages, pg)
	}
}

// hasCode reports whether the page holds completed or in-flight blocks.
func (d *BlockCache) hasCode(pg uint64) bool {
	if d.building && pg == d.bpage {
		return true
	}
	_, ok := d.codePages[pg]
	return ok
}

// InvalidateCode drops any cached decodes covering va's page without
// touching TLB state or emulated cycles — the hook for host-side (module)
// writers that patch memory behind the emulated store path, such as gate
// behaviour remaps.
func (c *VCPU) InvalidateCode(va mem.VA) {
	c.Decoded.epochs.BumpVA(va)
	if c.cur.blk != nil && c.cur.blk.page == uint64(va)>>mem.PageShift {
		c.cur = blockCursor{}
	}
}

// noteCodeWrite is the self-modifying-code hook: MemWrite calls it after
// every successful emulated store. If the store landed on a page with
// cached (or in-build) code, the page's epoch is bumped so its blocks are
// re-decoded on next entry, and the active cursor is killed if it was
// replaying from that page — the next fetch sees the new bytes.
func (c *VCPU) noteCodeWrite(va mem.VA, size int) {
	d := c.Decoded
	if !d.enabled {
		return
	}
	pg := uint64(va) >> mem.PageShift
	endPg := (uint64(va) + uint64(size) - 1) >> mem.PageShift
	for p := pg; p <= endPg; p++ {
		if !d.hasCode(p) {
			continue
		}
		d.epochs.BumpVA(mem.VA(p << mem.PageShift))
		if c.cur.blk != nil && c.cur.blk.page == p {
			c.cur = blockCursor{}
		}
	}
}
