// Trace/superblock compilation: stitching hot decoded blocks across direct
// branches into superblocks that replay with one generation check per touched
// page and one batched Charge flush, instead of per-instruction
// translate/permission/dispatch work.
//
// This file owns every trace-cache field and all code that reads or writes
// them — tools/lint rejects `.tcache` selectors anywhere else in package cpu,
// mirroring the `.mtlb` confinement — so the identity argument below is an
// audit of this one file (plus the proof oracle in proofaudit.go, which
// owns the composed proof slot).
//
// The identity argument (DESIGN.md §13): a trace is a memoised sequence of
// cached-block replays along one predicted control-flow path. Entering it
// elides, per instruction, exactly one architectural fetch translation and
// the block-cache entry/cursor machinery. The elision is sound because the
// entry guard proves the elided work would have been free and hit-only:
//
//   - the block-cache key probe (keyFor) proves the executing context —
//     (VMID, ASID, SCTLR.M) — equals the trace's stitch-time context, so the
//     TTBR half and TLB tagging are unchanged; every member lies in the
//     entry's half, so a TTBR1-half trace keeps TTBR1's ASID throughout,
//     even across the MSR TTBR0_EL1 of a call gate;
//   - per member page, the code-epoch Snapshot equals the stitch-time value,
//     so every member block is still cached and byte-valid (the same check
//     enter() would run), and — MMU on — a TLB Peek finds an exec-permitted,
//     non-overlay entry for the page under the current privilege, so the
//     per-instruction Translate would be a TLB hit: zero cycles, one TLB hit
//     counted, no fault. The replay mirrors that hit count batched through
//     TLB.NoteFastHits.
//
// Mid-trace, generations can only move at instructions dispatched through
// the generic path (loads/stores, terminators): every such step re-checks
// TLB gen + code-epoch gen and the predicted next PC, and side-exits —
// with the block cursor, PC, flushed cycles and flushed stats exactly as an
// untraced replay would have them — on any movement, misprediction, or
// exception delivery (detected by the host-side excSeq counter). Pure ALU
// steps cannot move generations, deliver, observe Cycles, or branch, so
// they skip the checks entirely. Recognized stitch edges — the gate-switch
// MRS reads and MSR PAN toggles of the lz_switch_* sequences — run fused
// handlers that skip generic dispatch when no audit oracle is attached. A
// call gate's MSR TTBR0_EL1 (TTBR1-half code only) is an edge too, but it
// keeps generic dispatch with the memory-step checks, so its hook, an
// HCR_EL2.TVM trap and any generation it moves act exactly as untraced.
//
// A stale trace dies in one place: the entry guard, whose per-page Snapshot
// comparison refuses it and drops it, just as BlockCache.enter refuses and
// drops a stale block. Until execution next reaches its key, a stale trace
// stays cached; the guard refuses it whatever bump moved its pages (a page
// store, a sibling page's region bump, a wholesale TLBI). Two wholesale
// clears remain: a block-cache reset (interned context ids die with it, so
// every trace key does too) and the stitch that finds maxTraces cached.
package cpu

import (
	"slices"
	"sort"
	"sync/atomic"

	"lightzone/internal/arm64"
	"lightzone/internal/arm64/absint"
	"lightzone/internal/mem"
)

// Trace cache geometry. Traces are small (a handful of blocks); the caps
// bound guard cost (pages) and stitch-time work (blocks, insns).
const (
	maxTraces      = 512
	maxTraceBlocks = 16
	maxTraceInsns  = 256
	maxTracePages  = 8
)

// defaultTraceHot is the execution count at which a cached block triggers
// stitching. Low enough that the gate-switch sequences fuse early in a
// benchmark, high enough that one-shot boot code never stitches.
const defaultTraceHot = 16

// Step kinds classify how runTrace dispatches each instruction.
const (
	kPure uint8 = iota // pure ALU/barrier: no deliver, no gen movement, no branch
	kMem               // may access memory or deliver: full post-dispatch checks
	kTerm              // terminator via generic dispatch: flush + PC prediction
	kPAN               // stitch edge: MSR PAN, #imm — fusable
	kMRS               // stitch edge: MRS of a known EL1-readable register — fusable
)

// traceStep is one pre-flattened instruction of a trace: the decoded insn,
// its predicted PC and successor, and the block cursor untraced execution
// would hold at its dispatch (so side-exits resume bit-identically). A step
// names its member block by index, never by pointer, so one step list
// serves every machine that adopts the trace from a code template; nothing
// writes a step list after flattenSteps builds it.
type traceStep struct {
	in     arm64.Insn
	pc     uint64
	next   uint64 // predicted PC after this step
	bIdx   int    // index of this insn within its member block
	member int8   // member whose cursor would still be live, or -1
	kind   uint8
	end    bool // final instruction of the trace

	// Fused-MRS specialization (kind == kMRS).
	mrsS1     bool // register is stage-1: honour the HCR_EL2.TRVM trap
	fusedReg  arm64.SysReg
	fusedCost int64
}

// tracePage is one virtual page a trace fetches from, with the code-epoch
// snapshot all its member blocks on that page were built under.
type tracePage struct {
	page uint64 // VA >> PageShift (canonical bits preserved)
	snap uint64
}

// traceMember is one member block of a trace: the cached block, its cache
// key, its entry PC, and the edge by which control leaves it for the next
// member. The final member's edge is zero: its terminator is the trace's own
// exit. Carrying the edge on the member makes the composition shape — one
// edge per interior boundary — hold by construction.
type traceMember struct {
	blk   *dblock
	key   blockKey
	start uint64
	edge  absint.TraceEdge
}

// trace is one stitched superblock, keyed by its entry block's cache key.
type trace struct {
	key    blockKey
	insns  int
	mmuOff bool
	ttbr1  bool // MMU on: all member PCs in the TTBR1 half

	members []traceMember // at least two, in predicted order
	pages   []tracePage
	steps   []traceStep

	// proof is the composed trace proof, built on the trace's first audited
	// entry (see proofaudit.go; all access is confined to that file by
	// tools/lint, like dblock.proof).
	proof *absint.Proof

	// Entry-guard memo: when gValid and neither generation nor privilege
	// moved since the last full validation, the guard is a three-compare.
	gValid   bool
	gTLBGen  uint64
	gCodeGen uint64
	gPriv    bool
}

// traceWalk is the scratch of the stitch walk and of adoptTrace.
type traceWalk struct {
	members  []traceMember
	pages    []tracePage
	retStack []uint64
}

// traceCache is the per-vCPU trace state: the stitched traces (at most
// maxTraces; the stitch that would exceed it clears them all first), the
// stitcher's scratch, and host-side counters (flushed to the package
// aggregates by flushTraceStats). It keeps no side index: a trace is found
// only by its key, and a stale one is dropped only when its guard runs.
type traceCache struct {
	enabled   bool
	threshold uint32
	traces    map[blockKey]*trace

	// walk is the stitch walk's scratch, reused by every walk and template
	// probe so that a failed one allocates nothing; a successful one copies
	// it out.
	walk traceWalk

	stitched     uint64
	stitchFailed uint64
	adopted      uint64
	entered      uint64
	completed    uint64
	sideExits    uint64
	invalidated  uint64
	insnsRun     uint64
}

// scratch returns the walk scratch, made on first use.
func (tc *traceCache) scratch() *traceWalk {
	w := &tc.walk
	if w.members == nil {
		w.members = make([]traceMember, 0, maxTraceBlocks)
		w.pages = make([]tracePage, 0, maxTracePages)
		w.retStack = make([]uint64, 0, maxTraceBlocks)
	}
	return w
}

func newTraceCache() traceCache {
	// Maps are created when the first trace is installed: most machines
	// (and every freshly forked child) never stitch one.
	return traceCache{
		enabled:   traceDefault.Load(),
		threshold: defaultTraceHot,
	}
}

// traceDefault seeds the enabled state of newly created trace caches, so
// tools (lzbench -interp, bench's oracle) can configure machines booted
// deep inside sweeps.
var traceDefault atomic.Bool

func init() { traceDefault.Store(true) }

// SetTraceDefault sets whether new vCPUs start with trace compilation on.
func SetTraceDefault(on bool) { traceDefault.Store(on) }

// TraceDefault reports the current default for new vCPUs.
func TraceDefault() bool { return traceDefault.Load() }

// SetTraces enables or disables trace compilation on this vCPU. All stitched
// traces are dropped either way, so the toggle is safe mid-run: "off" leaves
// the block pipeline bit-identical.
func (c *VCPU) SetTraces(on bool) {
	c.dropAllTraces()
	c.tcache.enabled = on
}

// TracesEnabled reports whether trace compilation is active on this vCPU.
func (c *VCPU) TracesEnabled() bool { return c.tcache.enabled }

// SetTraceHotThreshold sets this vCPU's stitch threshold (minimum 1) and
// drops existing traces so tests observe fresh stitching behaviour.
func (c *VCPU) SetTraceHotThreshold(n int) {
	if n < 1 {
		n = 1
	}
	c.dropAllTraces()
	c.tcache.threshold = uint32(n)
}

// TraceCacheLen returns the number of cached stitched traces, counting stale
// ones the entry guard has not refused yet (TraceSnapshot's EpochOK tells
// them apart).
func (c *VCPU) TraceCacheLen() int { return len(c.tcache.traces) }

// TraceStats aggregates host-side trace-compiler counters across all vCPUs
// since the last reset. Host observability only — never part of the
// emulated identity surface.
type TraceStats struct {
	Stitched     uint64 // traces successfully composed
	StitchFailed uint64 // stitch attempts abandoned (transient or permanent)
	Adopted      uint64 // traces taken from a zygote's code template instead of stitched
	Entered      uint64 // guarded trace entries taken
	Completed    uint64 // traces that ran to their final instruction
	SideExits    uint64 // traces abandoned mid-run (misprediction, gen move, exception)
	Invalidated  uint64 // traces dropped: refused stale by the entry guard, or cleared wholesale
	InsnsRun     uint64 // instructions retired inside traces
}

// Sub returns the counter delta s-o, for windowed measurement.
func (s TraceStats) Sub(o TraceStats) TraceStats {
	return TraceStats{
		Stitched:     s.Stitched - o.Stitched,
		StitchFailed: s.StitchFailed - o.StitchFailed,
		Adopted:      s.Adopted - o.Adopted,
		Entered:      s.Entered - o.Entered,
		Completed:    s.Completed - o.Completed,
		SideExits:    s.SideExits - o.SideExits,
		Invalidated:  s.Invalidated - o.Invalidated,
		InsnsRun:     s.InsnsRun - o.InsnsRun,
	}
}

var (
	tStitched     atomic.Uint64
	tStitchFailed atomic.Uint64
	tAdopted      atomic.Uint64
	tEntered      atomic.Uint64
	tCompleted    atomic.Uint64
	tSideExits    atomic.Uint64
	tInvalidated  atomic.Uint64
	tInsnsRun     atomic.Uint64
)

// ReadTraceStats snapshots the global trace counters.
func ReadTraceStats() TraceStats {
	return TraceStats{
		Stitched:     tStitched.Load(),
		StitchFailed: tStitchFailed.Load(),
		Adopted:      tAdopted.Load(),
		Entered:      tEntered.Load(),
		Completed:    tCompleted.Load(),
		SideExits:    tSideExits.Load(),
		Invalidated:  tInvalidated.Load(),
		InsnsRun:     tInsnsRun.Load(),
	}
}

// flushTraceStats folds this vCPU's trace counters into the package
// aggregates (called at the end of every Run, like notePerf).
func (c *VCPU) flushTraceStats() {
	tc := &c.tcache
	if tc.stitched|tc.stitchFailed|tc.adopted|tc.entered|tc.completed|tc.sideExits|
		tc.invalidated|tc.insnsRun == 0 {
		return
	}
	// Per-counter guards: a Run typically moves only the entry/completion
	// counters, and uncontended atomic adds still dominate this path.
	if tc.stitched != 0 {
		tStitched.Add(tc.stitched)
	}
	if tc.stitchFailed != 0 {
		tStitchFailed.Add(tc.stitchFailed)
	}
	if tc.adopted != 0 {
		tAdopted.Add(tc.adopted)
	}
	if tc.entered != 0 {
		tEntered.Add(tc.entered)
	}
	if tc.completed != 0 {
		tCompleted.Add(tc.completed)
	}
	if tc.sideExits != 0 {
		tSideExits.Add(tc.sideExits)
	}
	if tc.invalidated != 0 {
		tInvalidated.Add(tc.invalidated)
	}
	if tc.insnsRun != 0 {
		tInsnsRun.Add(tc.insnsRun)
	}
	tc.stitched, tc.stitchFailed, tc.adopted, tc.entered, tc.completed = 0, 0, 0, 0, 0
	tc.sideExits, tc.invalidated, tc.insnsRun = 0, 0, 0
}

// pureOp reports whether the op's handler is a pure register/PSTATE
// computation (or a charge-only barrier): it cannot access memory, deliver
// an exception, observe Cycles, branch, or move any generation. These steps
// skip cursor maintenance and all post-dispatch checks inside a trace.
func pureOp(op arm64.Op) bool {
	switch op {
	case arm64.OpNOP, arm64.OpMOVZ, arm64.OpMOVK, arm64.OpMOVN, arm64.OpADR,
		arm64.OpAddImm, arm64.OpSubImm, arm64.OpAddReg, arm64.OpSubReg,
		arm64.OpAndReg, arm64.OpOrrReg, arm64.OpEorReg,
		arm64.OpLSLV, arm64.OpLSRV, arm64.OpMAdd, arm64.OpUDiv,
		arm64.OpUBFM, arm64.OpCSel, arm64.OpCSInc,
		arm64.OpISB, arm64.OpDSB, arm64.OpDMB:
		return true
	}
	return false
}

// noteBlockHot is called by BlockCache.enter on every validated block entry.
// The counter saturates at the stitch threshold: a successful stitch or an
// adoption from the code template keys the trace here and pins every member
// (installTrace), a permanent failure pins the counter so the walk never
// re-runs, and a transient failure (successor not cached yet) resets it so
// a warmer pass retries. Below the threshold every entry first tries the
// template (adoptTrace).
func (c *VCPU) noteBlockHot(b *dblock, key blockKey, pc uint64) {
	tc := &c.tcache
	if !tc.enabled || b.hot >= tc.threshold {
		return
	}
	if c.adoptTrace(b, key, pc) {
		return
	}
	b.hot++
	if b.hot == tc.threshold {
		c.maybeStitch(b, key, pc)
	}
}

// maybeStitch walks forward from a newly hot block across direct edges —
// B, BL into a leaf whose RET matches the call, predicted-direction
// conditionals, fused MSR-PAN / MRS fall-throughs, a TTBR1-half call gate's
// MSR TTBR0_EL1, and page-boundary fall-throughs — collecting cached,
// epoch-valid successor blocks into a superblock. The walk never touches
// emulated state or stats: successors are probed directly in the block map
// (not via enter, which mutates CodeStale), and context interning cannot
// reset mid-walk because the same-half constraint keeps every keyFor on the
// context the entry block's own lookup just placed in the interning memo.
//
// A stitch costs this one walk over the per-cache scratch (at most
// maxTraceBlocks members and maxTracePages pages, so membership tests are
// linear scans) plus, on success, one exactly-sized copy of each trace
// slice. No proof work happens here: the composed trace proof is built on
// the trace's first audited entry.
func (c *VCPU) maybeStitch(b *dblock, key blockKey, pc uint64) {
	tc := &c.tcache
	if _, dup := tc.traces[key]; dup {
		return
	}
	d := c.Decoded
	mmuOff := c.sys[arm64.SCTLREL1]&SCTLRM == 0
	ttbr1 := !mmuOff && mem.IsTTBR1(mem.VA(pc))

	w := tc.scratch()
	members := append(w.members[:0], traceMember{blk: b, key: key, start: pc})
	pages := append(w.pages[:0], tracePage{page: b.page, snap: b.snap})
	retStack := w.retStack[:0]
	insns := len(b.insns)

walk:
	for len(members) < maxTraceBlocks && insns < maxTraceInsns {
		cur := &members[len(members)-1]
		last := cur.blk.insns[len(cur.blk.insns)-1]
		termPC := cur.start + uint64(len(cur.blk.insns)-1)*arm64.InsnBytes
		edge := absint.TraceEdge{Term: last.Op}
		var next uint64
		switch last.Op {
		case arm64.OpB:
			next = termPC + uint64(last.Imm)
		case arm64.OpBL:
			next = termPC + uint64(last.Imm)
			retStack = append(retStack, termPC+arm64.InsnBytes)
		case arm64.OpRET:
			// Only a RET through x30 balancing an in-trace BL is predictable.
			if last.Rn != 30 || len(retStack) == 0 {
				break walk
			}
			next = retStack[len(retStack)-1]
			retStack = retStack[:len(retStack)-1]
		case arm64.OpBCond, arm64.OpCBZ, arm64.OpCBNZ:
			if last.Imm < 0 {
				// Backward conditional: predict taken (loop shape). A target
				// equal to the fall-through cannot be backward, so the
				// prediction charges BranchCost iff it holds.
				edge.TakenPred = true
				next = termPC + uint64(last.Imm)
			} else {
				next = termPC + arm64.InsnBytes
			}
		case arm64.OpMSRImm:
			switch {
			case last.Sys.Op1 == arm64.PStateFieldPANOp1 && last.Sys.Op2 == arm64.PStateFieldPANOp2:
				edge.FusedPAN = true
			case last.Sys.Op1 == arm64.PStateFieldSPSel1 && last.Sys.Op2 == arm64.PStateFieldSPSel2:
				// SPSel flip: plain fall-through edge via generic dispatch.
			default:
				break walk // undecoded pstate field would deliver
			}
			next = termPC + arm64.InsnBytes
		case arm64.OpMRS:
			r, known := arm64.LookupSysReg(last.Sys)
			if !known || r.MinEL() > arm64.EL1 {
				break walk
			}
			next = termPC + arm64.InsnBytes
		case arm64.OpMSRReg:
			// A call gate's TTBR0 switch: TTBR1-half code fetches and keys
			// its blocks under TTBR1's ASID, which the write leaves alone.
			// Any other sysreg write, or this one elsewhere, ends the walk.
			r, known := arm64.LookupSysReg(last.Sys)
			if !ttbr1 || !known || r != arm64.TTBR0EL1 {
				break walk
			}
			next = termPC + arm64.InsnBytes
		default:
			if last.Op.Terminates() {
				// Indirect branches, exception generators, sysreg writes,
				// SYS space, undecodable words: never stitch across.
				break walk
			}
			// Page-boundary block: the last instruction falls through.
			next = termPC + arm64.InsnBytes
		}
		if hasMemberStart(members, next) {
			break // loop closure: end the trace at the back edge
		}
		if !mmuOff && mem.IsTTBR1(mem.VA(next)) != ttbr1 {
			break // one TTBR/ASID must cover the whole trace
		}
		skey := d.keyFor(c, next)
		sb := d.blocks[skey]
		if sb == nil || c.TLB.Code.Snapshot(sb.page) != sb.snap {
			// Successor not (validly) cached yet: transient. Reset the hot
			// counter so a later, warmer pass retries the stitch.
			b.hot = 0
			tc.stitchFailed++
			return
		}
		newPage := !hasPage(pages, sb.page)
		if insns+len(sb.insns) > maxTraceInsns || (newPage && len(pages) >= maxTracePages) {
			break
		}
		if newPage {
			pages = append(pages, tracePage{page: sb.page, snap: sb.snap})
		}
		cur.edge = edge
		members = append(members, traceMember{blk: sb, key: skey, start: next})
		insns += len(sb.insns)
	}
	if len(members) < 2 {
		tc.stitchFailed++ // permanent: hot stays pinned, no re-walk
		return
	}

	t := &trace{
		key: key, insns: insns, mmuOff: mmuOff, ttbr1: ttbr1,
		members: append([]traceMember(nil), members...),
		pages:   append([]tracePage(nil), pages...),
	}
	t.steps = c.flattenSteps(t.members, insns)
	c.installTrace(t)
	tc.stitched++
}

// installTrace caches t under its key, clearing the cache first at the cap,
// and pins the hot counter of every member at the threshold: a block that
// already runs inside a trace never starts a second one mid-way. A dropped
// trace unpins only its entry, which re-stitches the members it covered.
func (c *VCPU) installTrace(t *trace) {
	tc := &c.tcache
	if len(tc.traces) >= maxTraces {
		c.dropAllTraces()
	}
	if tc.traces == nil {
		var n int
		if tmpl := c.Decoded.tmpl; tmpl != nil {
			n = tmpl.nTraces
		}
		tc.traces = make(map[blockKey]*trace, n)
	}
	tc.traces[t.key] = t
	for i := range t.members {
		t.members[i].blk.hot = tc.threshold
	}
}

// hasMemberStart reports whether a member block of the walk starts at pc.
func hasMemberStart(members []traceMember, pc uint64) bool {
	for i := range members {
		if members[i].start == pc {
			return true
		}
	}
	return false
}

// hasPage reports whether the walk already fetches from page.
func hasPage(pages []tracePage, page uint64) bool {
	for i := range pages {
		if pages[i].page == page {
			return true
		}
	}
	return false
}

// flattenSteps lowers the member blocks into the per-instruction step list
// (exactly insns long), classifying each step's dispatch kind and recording
// the block cursor an untraced replay would hold at its dispatch.
func (c *VCPU) flattenSteps(members []traceMember, insns int) []traceStep {
	steps := make([]traceStep, 0, insns)
	for mi := range members {
		m := &members[mi]
		n := len(m.blk.insns)
		for i, in := range m.blk.insns {
			st := traceStep{
				in:     in,
				pc:     m.start + uint64(i)*arm64.InsnBytes,
				bIdx:   i,
				member: -1,
			}
			st.next = st.pc + arm64.InsnBytes
			if i+1 < n {
				st.member = int8(mi)
			}
			switch {
			case i < n-1: // interior instruction
				if pureOp(in.Op) {
					st.kind = kPure
				} else {
					st.kind = kMem
				}
			case mi < len(members)-1: // stitch edge
				st.next = members[mi+1].start
				switch {
				case m.edge.FusedPAN:
					st.kind = kPAN
				case in.Op == arm64.OpMRS:
					st.kind = kMRS
					r, _ := arm64.LookupSysReg(in.Sys)
					st.fusedReg = r
					st.mrsS1 = arm64.IsStage1Reg(r)
					st.fusedCost = c.Prof.SysRegReadCost(r)
				case in.Op == arm64.OpMSRReg:
					// The TTBR0 write edge keeps generic dispatch and its
					// generation checks: the hook, a TVM trap and any
					// generation movement behave exactly as untraced.
					st.kind = kMem
				case in.Op.Terminates():
					st.kind = kTerm
				case pureOp(in.Op):
					st.kind = kPure // pure page-boundary fall-through
				default:
					st.kind = kMem
				}
			default: // final instruction of the trace
				st.end = true
				switch {
				case in.Op.Terminates():
					st.kind = kTerm
				case pureOp(in.Op):
					st.kind = kPure
				default:
					st.kind = kMem
				}
			}
			steps = append(steps, st)
		}
	}
	return steps
}

// pickTrace returns the guarded trace starting at the current PC, or nil.
// runLoop calls it only with a dead block cursor, at EL0/EL1, and with no
// deliverable IRQ.
func (c *VCPU) pickTrace(remaining int64) *trace {
	tc := &c.tcache
	if !tc.enabled || len(tc.traces) == 0 {
		return nil
	}
	// keyFor proves the executing context (VMID, ASID, SCTLR.M, TTBR half)
	// equals the stitch-time context; it may intern a new context and reset
	// the block cache — which drops all traces — so the lookup runs after.
	// The guard runs before the budget test, so every arrival at a stale
	// trace's key retires it; otherwise a short Run slice could leave it
	// cached while its rebuilt entry block turns hot, and the stitch of
	// that block would find the key taken.
	key := c.Decoded.keyFor(c, c.PC)
	t := tc.traces[key]
	if t == nil || !c.traceGuard(t) || int64(t.insns) > remaining {
		return nil
	}
	return t
}

// traceGuard proves the trace's elided per-instruction fetches would all be
// free TLB hits (or free flat fetches, MMU off) right now. Epoch mismatch is
// a hard failure — the member blocks are stale, so the trace is dropped;
// TLB pressure (Peek miss) or a permission/overlay change is soft — the
// trace stays cached and this entry falls back to the block pipeline, which
// performs exactly the untraced work.
func (c *VCPU) traceGuard(t *trace) bool {
	if t.mmuOff {
		// Flat fetches never touch the TLB; stage-2 must still be off, or
		// each fetch would charge a stage-2 walk the trace elides.
		if c.stage2Enabled() {
			return false
		}
		if t.gValid && c.TLB.Code.Gen() == t.gCodeGen {
			return true
		}
		for i := range t.pages {
			pg := &t.pages[i]
			if c.TLB.Code.Snapshot(pg.page) != pg.snap {
				c.dropTrace(t)
				return false
			}
		}
		t.gValid = true
		t.gCodeGen = c.TLB.Code.Gen()
		return true
	}
	priv := c.EL() != arm64.EL0
	if t.gValid && c.TLB.Gen() == t.gTLBGen &&
		c.TLB.Code.Gen() == t.gCodeGen && priv == t.gPriv {
		return true
	}
	vmid := c.CurrentVMID()
	ttbr := c.sys[arm64.TTBR0EL1]
	if t.ttbr1 {
		ttbr = c.sys[arm64.TTBR1EL1]
	}
	asid := TTBRASID(ttbr)
	for i := range t.pages {
		pg := &t.pages[i]
		if c.TLB.Code.Snapshot(pg.page) != pg.snap {
			c.dropTrace(t)
			return false
		}
		e, ok := c.TLB.Peek(vmid, asid, mem.VA(pg.page<<mem.PageShift))
		if !ok {
			return false // would walk: fall back to the block pipeline
		}
		if mem.OverlayKey(e.S1Desc) != 0 {
			return false // overlay verdicts move without a generation bump
		}
		// PAN never restricts execution, so it is deliberately absent here.
		if mem.CheckStage1(e.S1Desc, mem.AccessExec, priv, false, false) != mem.FaultNone {
			return false
		}
		if e.HasS2 && mem.CheckStage2(e.S2Desc, mem.AccessExec) != mem.FaultNone {
			return false
		}
	}
	t.gValid = true
	t.gTLBGen = c.TLB.Gen()
	t.gCodeGen = c.TLB.Code.Gen()
	t.gPriv = priv
	return true
}

// runTrace replays a guarded trace. Per instruction it performs exactly the
// emulated-surface work the block pipeline would — Insns, CodeHits, one TLB
// hit (batched), InsnCost (batched), handler dispatch — while eliding the
// per-instruction Translate and cursor machinery the guard proved free.
// Every exit path leaves PC, the block cursor, Cycles and Stats bit-equal
// to an untraced replay of the same instructions.
func (c *VCPU) runTrace(t *trace) (int64, *Exit, error) {
	tc := &c.tcache
	tc.entered++
	aud := c.audit
	if aud != nil {
		aud.noteTraceEnter(c, t)
	}
	tlbGen0 := c.TLB.Gen()
	codeGen0 := c.TLB.Code.Gen()
	seq0 := c.excSeq
	mmuOn := !t.mmuOff
	var pendHits uint64
	var done int64
	finish := func() {
		if pendHits != 0 {
			c.TLB.NoteFastHits(pendHits)
		}
		c.flushBatch()
		tc.insnsRun += uint64(done)
	}
	for i := range t.steps {
		st := &t.steps[i]
		c.Insns++
		done++
		c.batch += c.Prof.InsnCost
		c.Stats.CodeHits++
		if mmuOn {
			pendHits++
		}
		c.nextPC = st.pc + arm64.InsnBytes
		if aud != nil {
			aud.noteDispatch(c, c.PC)
		}
		switch st.kind {
		case kPure:
			handlers[st.in.Op](c, st.in)
			c.PC = c.nextPC
			if st.end {
				// A stale mid-trace cursor must never survive the trace: a
				// coincidental expect match would replay instead of enter.
				c.cur = blockCursor{}
				tc.completed++
				finish()
				return done, nil, nil
			}
			continue
		case kPAN:
			if aud == nil && c.EL() != arm64.EL0 {
				c.batch += c.Prof.PanToggleCost
				c.SetPAN(st.in.Sys.CRm&1 != 0)
				c.PC = c.nextPC
				continue
			}
		case kMRS:
			if aud == nil && c.EL() == arm64.EL1 &&
				(!st.mrsS1 || c.sys[arm64.HCREL2]&HCRTRVM == 0) {
				c.batch += st.fusedCost
				c.SetR(st.in.Rt, c.sys[st.fusedReg])
				c.PC = c.nextPC
				continue
			}
		}
		// Generic dispatch: runBlock's exact per-instruction sequence. The
		// cursor is set first so exception delivery, self-modifying-code
		// cursor kills, and side-exit resumption all see the state an
		// untraced replay would have at this point.
		var blk *dblock
		if st.member >= 0 {
			blk = t.members[st.member].blk
		}
		c.cur = blockCursor{blk: blk, idx: st.bIdx + 1, expect: st.pc + arm64.InsnBytes}
		if st.in.Op.Terminates() {
			c.flushBatch()
		}
		exit := handlers[st.in.Op](c, st.in)
		if c.stepErr != nil {
			err := c.stepErr
			c.stepErr = nil
			if aud != nil {
				aud.abandon()
			}
			tc.sideExits++
			finish()
			return done, nil, err
		}
		if exit != nil {
			if st.end {
				// An exit on the final step (HVC and friends as the trace
				// terminator) is a completion, not an abandonment.
				tc.completed++
			}
			if aud != nil {
				aud.abandon()
			}
			finish()
			return done, exit, nil
		}
		c.PC = c.nextPC
		if st.end {
			tc.completed++
			finish()
			return done, nil, nil
		}
		if c.excSeq != seq0 || c.PC != st.next ||
			(st.kind == kMem && (c.TLB.Gen() != tlbGen0 || c.TLB.Code.Gen() != codeGen0)) {
			// Exception delivered, branch mispredicted, or a memory effect
			// moved a generation the entry guard froze: resume untraced.
			if aud != nil {
				aud.abandon()
			}
			tc.sideExits++
			finish()
			return done, nil, nil
		}
	}
	// Unreachable: the final step always has end set.
	finish()
	return done, nil, nil
}

// dropTrace removes a trace the entry guard found stale and unpins its entry
// block's hot counter so the block can re-trigger stitching after the world
// settles.
func (c *VCPU) dropTrace(t *trace) {
	tc := &c.tcache
	delete(tc.traces, t.key)
	t.members[0].blk.hot = 0
	tc.invalidated++
}

// dropAllTraces empties the trace cache (SetTraces, SetTraceHotThreshold,
// the trace cap, block-cache reset — interned context ids dangle after a
// reset, so every key does too).
func (c *VCPU) dropAllTraces() {
	tc := &c.tcache
	if len(tc.traces) == 0 {
		return
	}
	for _, t := range tc.traces {
		t.members[0].blk.hot = 0
		tc.invalidated++
	}
	clear(tc.traces)
}

// traceLive reports whether every member page's code epoch still matches
// the trace's stitch-time snapshot: whether the entry guard would keep it.
func (c *VCPU) traceLive(t *trace) bool {
	for i := range t.pages {
		if c.TLB.Code.Snapshot(t.pages[i].page) != t.pages[i].snap {
			return false
		}
	}
	return true
}

// traceTemplate is one trace of a code template (see CodeTemplate): its
// shape, its members by entry PC and template body, and the publisher's
// step list, shared as is.
type traceTemplate struct {
	insns   int
	mmuOff  bool
	ttbr1   bool
	members []templateMember
	steps   []traceStep
}

// templateMember is one member of a template trace.
type templateMember struct {
	start uint64
	body  []arm64.Insn // one of CodeTemplate.blocks
	edge  absint.TraceEdge
}

// templateTraces copies this machine's live traces for a code template
// whose bodies are blocks, keyed by entry PC. A template trace names each
// member by its template body, so a trace is kept only when the words of
// every member equal the body published at the member's PA, and a trace
// whose members repeat an earlier candidate's is dropped. Traces are
// visited in key order, so the candidates of one entry come in a fixed
// order.
func (c *VCPU) templateTraces(blocks map[mem.PA][]arm64.Insn) map[uint64][]*traceTemplate {
	tc := &c.tcache
	keys := make([]blockKey, 0, len(tc.traces))
	for k, t := range tc.traces {
		if c.traceLive(t) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	out := make(map[uint64][]*traceTemplate)
traces:
	for _, k := range keys {
		t := tc.traces[k]
		tt := &traceTemplate{
			insns: t.insns, mmuOff: t.mmuOff, ttbr1: t.ttbr1,
			members: make([]templateMember, len(t.members)),
			steps:   t.steps,
		}
		for i := range t.members {
			m := &t.members[i]
			body := blocks[m.blk.pa]
			if !slices.EqualFunc(body, m.blk.insns, func(a, b arm64.Insn) bool { return a.Raw == b.Raw }) {
				continue traces
			}
			tt.members[i] = templateMember{start: m.start, body: body, edge: m.edge}
		}
		entry := tt.members[0].start
		for _, o := range out[entry] {
			if o.mmuOff == tt.mmuOff && o.ttbr1 == tt.ttbr1 &&
				slices.EqualFunc(o.members, tt.members, func(a, b templateMember) bool {
					return a.start == b.start && &a.body[0] == &b.body[0]
				}) {
				continue traces
			}
		}
		out[entry] = append(out[entry], tt)
	}
	return out
}

// sameBody reports whether b holds body itself, not merely equal words:
// pointer equality proves b was adopted from the template that holds body.
func sameBody(b *dblock, body []arm64.Insn) bool {
	return len(b.insns) == len(body) && &b.insns[0] == &body[0]
}

// adoptTrace installs a trace from the code template for the validated
// entry block b at pc, when one fits, and reports whether it did. A
// candidate fits when this machine runs the publisher's profile (fused MRS
// costs are per profile), its MMU state and TTBR half match, and every
// member is cached here, live, and holds the template's body itself. Such
// a trace is one the stitch walk builds over these very members, so the
// entry guard's identity argument covers it; adoption skips the walk and
// the step list, taking this machine's members, keys and page snapshots.
// Like maybeStitch it reads only the block map: every member is in the
// entry's TTBR half, so each keyFor hits the context memo the entry's own
// lookup just filled and interning cannot reset mid-probe.
func (c *VCPU) adoptTrace(b *dblock, key blockKey, pc uint64) bool {
	tmpl := c.Decoded.tmpl
	if tmpl == nil || tmpl.prof != c.Prof {
		return false
	}
	cands := tmpl.traces[pc]
	tc := &c.tcache
	if len(cands) == 0 || tc.traces[key] != nil {
		return false
	}
	d := c.Decoded
	mmuOff := c.sys[arm64.SCTLREL1]&SCTLRM == 0
	ttbr1 := !mmuOff && mem.IsTTBR1(mem.VA(pc))
	w := tc.scratch()
cands:
	for _, tt := range cands {
		if tt.mmuOff != mmuOff || tt.ttbr1 != ttbr1 || !sameBody(b, tt.members[0].body) {
			continue
		}
		members := append(w.members[:0], traceMember{blk: b, key: key, start: pc, edge: tt.members[0].edge})
		pages := append(w.pages[:0], tracePage{page: b.page, snap: b.snap})
		for i := 1; i < len(tt.members); i++ {
			m := &tt.members[i]
			skey := d.keyFor(c, m.start)
			sb := d.blocks[skey]
			if sb == nil || !sameBody(sb, m.body) || c.TLB.Code.Snapshot(sb.page) != sb.snap {
				continue cands
			}
			if !hasPage(pages, sb.page) {
				pages = append(pages, tracePage{page: sb.page, snap: sb.snap})
			}
			members = append(members, traceMember{blk: sb, key: skey, start: m.start, edge: m.edge})
		}
		c.installTrace(&trace{
			key: key, insns: tt.insns, mmuOff: mmuOff, ttbr1: ttbr1,
			members: append([]traceMember(nil), members...),
			pages:   append([]tracePage(nil), pages...),
			steps:   tt.steps,
		})
		tc.adopted++
		return true
	}
	return false
}

// TraceInfo describes one stitched trace for verifiers and tests:
// its keying context, shape, and whether the entry guard would still admit
// it. Observation-only.
type TraceInfo struct {
	EntryPC uint64
	VMID    uint16
	ASID    uint16
	MMUOff  bool
	Blocks  int
	Insns   int
	Pages   int
	// EpochOK: every member page's code epoch still matches the stitch-time
	// snapshot. A trace is live (replayable) exactly when EpochOK holds; a
	// stale one stays cached until its guard refuses it.
	EpochOK bool
	PCs     []uint64 // predicted PC of every instruction, trace order
	Raw     []uint32 // raw words, trace order
}

// TraceSnapshot returns a deterministic snapshot of the trace cache (sorted
// by context then entry PC). Observation-only: no stats or epochs move.
func (c *VCPU) TraceSnapshot() []TraceInfo {
	tc := &c.tcache
	d := c.Decoded
	out := make([]TraceInfo, 0, len(tc.traces))
	for key, t := range tc.traces {
		ctx := d.ctxList[key>>blockCtxShift]
		info := TraceInfo{
			EntryPC: t.members[0].start,
			VMID:    ctx.vmid,
			ASID:    ctx.asid,
			MMUOff:  ctx.mmuOff,
			Blocks:  len(t.members),
			Insns:   t.insns,
			Pages:   len(t.pages),
			EpochOK: c.traceLive(t),
			PCs:     make([]uint64, 0, len(t.steps)),
			Raw:     make([]uint32, 0, len(t.steps)),
		}
		for i := range t.steps {
			info.PCs = append(info.PCs, t.steps[i].pc)
			info.Raw = append(info.Raw, t.steps[i].in.Raw)
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
		return a.EntryPC < b.EntryPC
	})
	return out
}
