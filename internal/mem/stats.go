package mem

// Stats aggregates translation- and decode-cache counters for one vCPU.
// The TLB and the cpu-layer decoded-block cache share a single instance so
// tools (lzinspect, trace summaries, the public Stats API) can report the
// whole fetch pipeline from one place. All counters are host-side
// observability only; they never feed back into emulated cycle accounting.
type Stats struct {
	// TLB translation cache.
	TLBHits   uint64
	TLBMisses uint64

	// Decoded-basic-block cache (internal/cpu): instructions replayed from
	// predecoded blocks vs. fetched and decoded from memory.
	CodeHits   uint64
	CodeMisses uint64
	// CodeBlocks counts completed straight-line blocks inserted into the
	// cache; CodeStale counts cached blocks rejected by an epoch check.
	CodeBlocks uint64
	CodeStale  uint64
	// CodeAdopted counts blocks taken from a zygote's code template
	// instead of built (internal/cpu's BlockCache.adopt). Host
	// observation only: no emulation path reads it.
	CodeAdopted uint64
	// CodeInvalidations counts code-generation epoch bumps (page-granular
	// and wholesale combined).
	CodeInvalidations uint64
}

// CodeEpochs tracks per-page code-generation epochs. Any event that can
// change the bytes reachable at a virtual page — an emulated store, a PTE
// write during break-before-make, an lz_prot permission flip, a stage-2
// remap — bumps the page's epoch. Every code cache checks at use: the
// decoded-block cache and the trace entry guard compare the Snapshot taken
// at build time with the current one and refuse (and drop) what has moved
// on, and the micro-TLBs compare Gen, so stale (pre-rewrite, unsanitized)
// words can never execute from a cache. A bump calls back into no cache.
//
// Epochs are keyed by virtual page alone, not (VMID, ASID): a bump
// over-invalidates across address spaces that share the page number, which
// costs only a re-decode and keeps the bump path callable from layers (page
// tables, stage-2) that do not know the executing context.
//
// The page and region maps hold only the bumps since the last wholesale
// bump: BumpAll folds them into global and empties them, so they are
// bounded by the pages invalidated between two wholesale bumps rather than
// by every page ever invalidated.
type CodeEpochs struct {
	global  uint64            // wholesale invalidations plus folded page epochs
	pages   map[uint64]uint64 // 4KB page index -> epoch since the last fold
	regions map[uint64]uint64 // 2MB region index -> epoch since the last fold
	vaBumps uint64            // BumpVA calls since the last fold

	// gen advances on every bump of any granularity. Snapshot needs two map
	// probes, which is too slow for a per-fetch gate; gen gives host-side
	// micro-TLBs a single-compare "has any code epoch moved" check that is
	// conservative (a bump anywhere drops all fastpath entries) but exact in
	// the only direction that matters for soundness.
	gen uint64

	stats *Stats
}

// NewCodeEpochs creates an epoch tracker reporting into stats (may be nil).
// The epoch maps are created on the first bump: machines that never rewrite
// code (and freshly forked children) never allocate them.
func NewCodeEpochs(stats *Stats) *CodeEpochs {
	return &CodeEpochs{stats: stats}
}

// Snapshot returns the current validity token for the 4KB page index
// (VA >> PageShift). Every bump that can affect the page strictly increases
// the token, so a block is valid iff its recorded snapshot still matches.
func (e *CodeEpochs) Snapshot(page uint64) uint64 {
	return e.global + e.pages[page] + e.regions[page>>(HugePageShift-PageShift)]
}

// Gen returns the epoch generation (see the gen field). Observation only.
func (e *CodeEpochs) Gen() uint64 { return e.gen }

// BumpVA invalidates code cached on va's 4KB page and on the 2MB region
// containing it (a single invalidation may cover a huge mapping whose
// interior pages hold cached blocks).
func (e *CodeEpochs) BumpVA(va VA) {
	e.gen++
	if e.pages == nil {
		e.pages = make(map[uint64]uint64)
		e.regions = make(map[uint64]uint64)
	}
	page := uint64(va) >> PageShift
	e.vaBumps++
	e.pages[page]++
	e.regions[page>>(HugePageShift-PageShift)]++
	if e.stats != nil {
		e.stats.CodeInvalidations++
	}
}

// BumpAll invalidates every cached block (wholesale TLB invalidations,
// ASID/VMID recycling). It also folds the page and region maps into global:
// no page or region epoch can exceed vaBumps, so raising global by
// 2*vaBumps+1 lifts every page's Snapshot strictly above any value it held,
// and both maps start over empty.
func (e *CodeEpochs) BumpAll() {
	e.gen++
	e.global += 2*e.vaBumps + 1
	e.vaBumps = 0
	clear(e.pages)
	clear(e.regions)
	if e.stats != nil {
		e.stats.CodeInvalidations++
	}
}
