// Trace/superblock compilation: stitching hot decoded blocks across direct
// branches into superblocks that replay with one generation check per touched
// page and one batched Charge flush, instead of per-instruction
// translate/permission/dispatch work.
//
// This file owns every trace-cache field and all code that reads or writes
// them — tools/lint rejects `.tcache` selectors anywhere else in package cpu,
// mirroring the `.mtlb` confinement — so the identity argument below is an
// audit of this one file (plus the trace-span oracle in proofaudit.go, which
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
//     TTBR half and TLB tagging are unchanged;
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
// handlers that skip generic dispatch when no audit oracle is attached.
//
// A trace dies eagerly when any member page's code epoch bumps (the
// CodeEpochs.OnBump hook), when a member block is evicted (BlockCache
// onEvict/onReset hooks), or lazily at the entry guard when a sibling-page
// region bump moved a Snapshot without firing the page hook. Every drop goes
// through dropTrace, which prunes the page index, so the side indexes only
// ever describe live traces.
package cpu

import (
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
// would hold at its dispatch (so side-exits resume bit-identically).
type traceStep struct {
	in     arm64.Insn
	pc     uint64
	next   uint64  // predicted PC after this step
	curBlk *dblock // member block if the cursor would still be live, else nil
	bIdx   int     // index of this insn within its member block
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
	gate   bool // contains a recognized gate-switch MRS TTBR0_EL1 edge

	members []traceMember // at least two, in predicted order
	pages   []tracePage
	steps   []traceStep

	// proof is the composed TraceProof, built on the trace's first audited
	// entry (see proofaudit.go; all access is confined to that file by
	// tools/lint, like dblock.proof).
	proof *absint.TraceProof

	// Entry-guard memo: when gValid and neither generation nor privilege
	// moved since the last full validation, the guard is a three-compare.
	gValid   bool
	gTLBGen  uint64
	gCodeGen uint64
	gPriv    bool
}

// traceCache is the per-vCPU trace state: the stitched traces, insertion
// order for cap eviction, the page index for eager invalidation, the
// stitcher's scratch, and host-side counters (flushed to the package
// aggregates by flushTraceStats).
//
// Both side indexes are bounded by the live traces: pageDeps lists exactly
// the live traces with a member on each page (dropTrace prunes it), and
// order is compacted to the live keys once it reaches 2*maxTraces.
type traceCache struct {
	enabled   bool
	threshold uint32
	traces    map[blockKey]*trace
	order     []blockKey
	pageDeps  map[uint64][]*trace

	// walk is the stitch walk's scratch, reused by every walk so that a
	// failed walk allocates nothing; a successful one copies it out.
	walk struct {
		members  []traceMember
		pages    []tracePage
		retStack []uint64
	}

	stitched     uint64
	stitchFailed uint64
	entered      uint64
	completed    uint64
	sideExits    uint64
	fused        uint64
	invalidated  uint64
	gateRuns     uint64
	insnsRun     uint64
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

// TraceCacheLen returns the number of live stitched traces.
func (c *VCPU) TraceCacheLen() int { return len(c.tcache.traces) }

// TraceStats aggregates host-side trace-compiler counters across all vCPUs
// since the last reset. Host observability only — never part of the
// emulated identity surface.
type TraceStats struct {
	Stitched     uint64 // traces successfully composed
	StitchFailed uint64 // stitch attempts abandoned (transient or permanent)
	Entered      uint64 // guarded trace entries taken
	Completed    uint64 // traces that ran to their final instruction
	SideExits    uint64 // traces abandoned mid-run (misprediction, gen move, exception)
	Fused        uint64 // gate-switch/PAN edges executed via fused handlers
	Invalidated  uint64 // traces dropped (epoch bump, eviction, reset, guard)
	GateRuns     uint64 // entries into traces containing a gate-switch edge
	InsnsRun     uint64 // instructions retired inside traces
}

// Sub returns the counter delta s-o, for windowed measurement.
func (s TraceStats) Sub(o TraceStats) TraceStats {
	return TraceStats{
		Stitched:     s.Stitched - o.Stitched,
		StitchFailed: s.StitchFailed - o.StitchFailed,
		Entered:      s.Entered - o.Entered,
		Completed:    s.Completed - o.Completed,
		SideExits:    s.SideExits - o.SideExits,
		Fused:        s.Fused - o.Fused,
		Invalidated:  s.Invalidated - o.Invalidated,
		GateRuns:     s.GateRuns - o.GateRuns,
		InsnsRun:     s.InsnsRun - o.InsnsRun,
	}
}

var (
	tStitched     atomic.Uint64
	tStitchFailed atomic.Uint64
	tEntered      atomic.Uint64
	tCompleted    atomic.Uint64
	tSideExits    atomic.Uint64
	tFused        atomic.Uint64
	tInvalidated  atomic.Uint64
	tGateRuns     atomic.Uint64
	tInsnsRun     atomic.Uint64
)

// ReadTraceStats snapshots the global trace counters.
func ReadTraceStats() TraceStats {
	return TraceStats{
		Stitched:     tStitched.Load(),
		StitchFailed: tStitchFailed.Load(),
		Entered:      tEntered.Load(),
		Completed:    tCompleted.Load(),
		SideExits:    tSideExits.Load(),
		Fused:        tFused.Load(),
		Invalidated:  tInvalidated.Load(),
		GateRuns:     tGateRuns.Load(),
		InsnsRun:     tInsnsRun.Load(),
	}
}

// flushTraceStats folds this vCPU's trace counters into the package
// aggregates (called at the end of every Run, like notePerf).
func (c *VCPU) flushTraceStats() {
	tc := &c.tcache
	if tc.stitched|tc.stitchFailed|tc.entered|tc.completed|tc.sideExits|
		tc.fused|tc.invalidated|tc.gateRuns|tc.insnsRun == 0 {
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
	if tc.entered != 0 {
		tEntered.Add(tc.entered)
	}
	if tc.completed != 0 {
		tCompleted.Add(tc.completed)
	}
	if tc.sideExits != 0 {
		tSideExits.Add(tc.sideExits)
	}
	if tc.fused != 0 {
		tFused.Add(tc.fused)
	}
	if tc.invalidated != 0 {
		tInvalidated.Add(tc.invalidated)
	}
	if tc.gateRuns != 0 {
		tGateRuns.Add(tc.gateRuns)
	}
	if tc.insnsRun != 0 {
		tInsnsRun.Add(tc.insnsRun)
	}
	tc.stitched, tc.stitchFailed, tc.entered, tc.completed = 0, 0, 0, 0
	tc.sideExits, tc.fused, tc.invalidated, tc.gateRuns, tc.insnsRun = 0, 0, 0, 0, 0
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
// The counter saturates at the stitch threshold: a successful stitch keys
// the trace here, a permanent failure pins the counter so the walk never
// re-runs, and a transient failure (successor not cached yet) resets it so
// a warmer pass retries.
func (c *VCPU) noteBlockHot(b *dblock, key blockKey, pc uint64) {
	tc := &c.tcache
	if !tc.enabled || b.hot >= tc.threshold {
		return
	}
	b.hot++
	if b.hot == tc.threshold {
		c.maybeStitch(b, key, pc)
	}
}

// maybeStitch walks forward from a newly hot block across direct edges —
// B, BL into a leaf whose RET matches the call, predicted-direction
// conditionals, fused MSR-PAN / MRS fall-throughs, and page-boundary
// fall-throughs — collecting cached, epoch-valid successor blocks into a
// superblock. The walk never touches emulated state or stats: successors
// are probed directly in the block map (not via enter, which mutates
// CodeStale), and context interning cannot reset mid-walk because the
// same-half constraint keeps every keyFor on the one-entry context cache.
//
// A stitch costs this one walk over the per-cache scratch (at most
// maxTraceBlocks members and maxTracePages pages, so membership tests are
// linear scans) plus, on success, one exactly-sized copy of each trace
// slice. No proof work happens here: the composed TraceProof is built on
// the trace's first audited entry.
func (c *VCPU) maybeStitch(b *dblock, key blockKey, pc uint64) {
	tc := &c.tcache
	if _, dup := tc.traces[key]; dup {
		return
	}
	d := c.Decoded
	mmuOff := c.sys[arm64.SCTLREL1]&SCTLRM == 0
	ttbr1 := !mmuOff && mem.IsTTBR1(mem.VA(pc))

	w := &tc.walk
	if w.members == nil {
		w.members = make([]traceMember, 0, maxTraceBlocks)
		w.pages = make([]tracePage, 0, maxTracePages)
		w.retStack = make([]uint64, 0, maxTraceBlocks)
	}
	members := append(w.members[:0], traceMember{blk: b, key: key, start: pc})
	pages := append(w.pages[:0], tracePage{page: b.page, snap: b.snap})
	retStack := w.retStack[:0]
	gate := false
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
			edge.ChargeFree = true
			if r == arm64.TTBR0EL1 {
				gate = true // the gate check-phase reads TTBR0_EL1
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
		key: key, insns: insns, mmuOff: mmuOff, ttbr1: ttbr1, gate: gate,
		members: append([]traceMember(nil), members...),
		pages:   append([]tracePage(nil), pages...),
	}
	t.steps = c.flattenSteps(t.members, insns)
	if len(tc.traces) >= maxTraces {
		c.evictTraces()
	}
	if len(tc.order) >= 2*maxTraces {
		tc.compactOrder()
	}
	if tc.traces == nil {
		tc.traces = make(map[blockKey]*trace)
		tc.pageDeps = make(map[uint64][]*trace)
	}
	tc.traces[key] = t
	tc.order = append(tc.order, key)
	for _, pg := range t.pages {
		tc.pageDeps[pg.page] = append(tc.pageDeps[pg.page], t)
	}
	tc.stitched++
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
				in:   in,
				pc:   m.start + uint64(i)*arm64.InsnBytes,
				bIdx: i,
			}
			st.next = st.pc + arm64.InsnBytes
			if i+1 < n {
				st.curBlk = m.blk
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
	key := c.Decoded.keyFor(c, c.PC)
	t := tc.traces[key]
	if t == nil || int64(t.insns) > remaining {
		return nil
	}
	if !c.traceGuard(t) {
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
	if t.gate {
		tc.gateRuns++
	}
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
			aud.noteTraceStep(c, i)
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
				tc.fused++
				c.PC = c.nextPC
				continue
			}
		case kMRS:
			if aud == nil && c.EL() == arm64.EL1 &&
				(!st.mrsS1 || c.sys[arm64.HCREL2]&HCRTRVM == 0) {
				c.batch += st.fusedCost
				c.SetR(st.in.Rt, c.sys[st.fusedReg])
				tc.fused++
				c.PC = c.nextPC
				continue
			}
		}
		// Generic dispatch: runBlock's exact per-instruction sequence. The
		// cursor is set first so exception delivery, self-modifying-code
		// cursor kills, and side-exit resumption all see the state an
		// untraced replay would have at this point.
		c.cur = blockCursor{blk: st.curBlk, idx: st.bIdx + 1, expect: st.pc + arm64.InsnBytes}
		if st.in.Op.Terminates() {
			c.flushBatch()
		}
		exit := handlers[st.in.Op](c, st.in)
		if c.stepErr != nil {
			err := c.stepErr
			c.stepErr = nil
			if aud != nil {
				aud.abandonTraceSpan()
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
				aud.abandonTraceSpan()
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
				aud.abandonTraceSpan()
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

// dropTrace removes one trace, prunes it from the page index, and unpins
// its entry block's hot counter so the block can re-trigger stitching after
// the world settles.
func (c *VCPU) dropTrace(t *trace) {
	tc := &c.tcache
	if tc.traces[t.key] != t {
		return
	}
	delete(tc.traces, t.key)
	for _, pg := range t.pages {
		deps := tc.pageDeps[pg.page]
		for i := range deps {
			if deps[i] == t {
				last := len(deps) - 1
				deps[i], deps[last] = deps[last], nil
				deps = deps[:last]
				break
			}
		}
		if len(deps) == 0 {
			delete(tc.pageDeps, pg.page)
		} else {
			tc.pageDeps[pg.page] = deps
		}
	}
	t.members[0].blk.hot = 0
	t.gValid = false
	tc.invalidated++
}

// dropTracesForPage drops every trace with a member block on the page.
func (c *VCPU) dropTracesForPage(page uint64) {
	tc := &c.tcache
	deps := tc.pageDeps[page]
	delete(tc.pageDeps, page)
	for _, t := range deps {
		c.dropTrace(t)
	}
}

// dropTracesForBlock drops every trace with the evicted block as a member —
// the BlockCache cohort-eviction hook. A dangling trace would otherwise keep
// replaying (and re-validating) a block the cache no longer owns. A member
// block's page is always one of its trace's pages, so the page index holds
// every candidate. Eviction is rare (cap pressure, chaos injection), which is
// why this scan replaces a per-member dependency map that every stitch would
// have to allocate and every drop to prune. The scan runs backwards because
// dropTrace swap-removes from this very list: entries below the cursor never
// move.
func (c *VCPU) dropTracesForBlock(key blockKey, page uint64) {
	tc := &c.tcache
	deps := tc.pageDeps[page]
	for i := len(deps) - 1; i >= 0; i-- {
		t := deps[i]
		for j := range t.members {
			if t.members[j].key == key {
				c.dropTrace(t)
				break
			}
		}
	}
}

// dropAllTraces empties the trace cache (wholesale epoch bump, block-cache
// reset — interned context ids dangle after a reset, so every key does too).
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
	clear(tc.pageDeps)
	tc.order = tc.order[:0]
}

// evictTraces drops the oldest half of the traces (cap pressure). Order
// entries of traces already dropped through another path are skipped.
func (c *VCPU) evictTraces() {
	tc := &c.tcache
	target := len(tc.traces) / 2
	evicted := 0
	i := 0
	for ; i < len(tc.order) && evicted < target; i++ {
		if t := tc.traces[tc.order[i]]; t != nil {
			c.dropTrace(t)
			evicted++
		}
	}
	tc.order = append(tc.order[:0], tc.order[i:]...)
}

// compactOrder rebuilds order keeping the first occurrence of each live
// key, bounding it when invalidation and re-stitching churn traces without
// ever reaching the trace cap. Keeping first occurrences preserves the
// eviction order evictTraces would have followed over the uncompacted list.
func (tc *traceCache) compactOrder() {
	seen := make(map[blockKey]bool, len(tc.traces))
	kept := tc.order[:0]
	for _, k := range tc.order {
		if tc.traces[k] != nil && !seen[k] {
			seen[k] = true
			kept = append(kept, k)
		}
	}
	tc.order = kept
}

// onCodeEpochBump is the CodeEpochs.OnBump hook: eager trace invalidation
// on the page (or wholesale) granularity. Region-granular side effects on
// sibling pages are caught lazily by the guard's Snapshot check.
func (c *VCPU) onCodeEpochBump(va mem.VA, wholesale bool) {
	if len(c.tcache.traces) == 0 {
		return
	}
	if wholesale {
		c.dropAllTraces()
		return
	}
	c.dropTracesForPage(uint64(va) >> mem.PageShift)
}

// TraceInfo describes one stitched trace for verifiers and tests:
// its keying context, shape, member identity, and whether its guard state
// still holds. Observation-only.
type TraceInfo struct {
	EntryPC    uint64
	VMID       uint16
	ASID       uint16
	MMUOff     bool
	Blocks     int
	Insns      int
	Pages      int
	GateSwitch bool
	// EpochOK: every member page's code epoch still matches the stitch-time
	// snapshot. DepsOK: every member block is still the cached block under
	// its key. A live (replayable) trace has both.
	EpochOK bool
	DepsOK  bool
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
			EntryPC:    t.members[0].start,
			VMID:       ctx.vmid,
			ASID:       ctx.asid,
			MMUOff:     ctx.mmuOff,
			Blocks:     len(t.members),
			Insns:      t.insns,
			Pages:      len(t.pages),
			GateSwitch: t.gate,
			EpochOK:    true,
			DepsOK:     true,
			PCs:        make([]uint64, 0, len(t.steps)),
			Raw:        make([]uint32, 0, len(t.steps)),
		}
		for i := range t.pages {
			if c.TLB.Code.Snapshot(t.pages[i].page) != t.pages[i].snap {
				info.EpochOK = false
			}
		}
		for _, m := range t.members {
			if d.blocks[m.key] != m.blk {
				info.DepsOK = false
			}
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
