package cpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lightzone/internal/arm64"
	"lightzone/internal/arm64/absint"
	"lightzone/internal/mem"
)

// The proof auditor is the dynamic oracle for the abstract interpreter's
// proofs (internal/arm64/absint): whenever the pipeline replays a cached
// decoded block or a stitched trace, the auditor opens a span over the
// replay and cross-checks what the unit's Proof predicted against what the
// concrete machine did — every interior data access in order (direction,
// width, and page when the proof pinned one), system-register and PAN
// freedom, and the minimum cycle charge implied by the proof's instruction,
// access, barrier, branch and PAN-toggle counts. A span abandons silently
// on any control discontinuity (exception delivery, cursor invalidation,
// IRQ, trace side exit); it records a divergence when a completed replay
// contradicts its proof, or when a trace replay leaves the composed path.
//
// The auditor is strictly observation-only: it never calls Charge, never
// touches Stats, and never mutates architectural state, so enabling it
// cannot change emitted benchmark results (lzbench -proofaudit asserts
// stdout byte-identity on top of the divergence count).

// proofAuditDefault seeds the audit state of newly created vCPUs, so tools
// (lzbench -proofaudit) can configure machines booted deep inside sweeps.
var proofAuditDefault atomic.Bool

// SetProofAuditDefault sets whether new vCPUs start with the proof audit
// oracle attached.
func SetProofAuditDefault(on bool) { proofAuditDefault.Store(on) }

// ProofAuditDefault reports the current default for new vCPUs.
func ProofAuditDefault() bool { return proofAuditDefault.Load() }

// ProofAuditStats aggregates audit outcomes across all vCPUs since the
// last reset. Spans = replays opened, Finished = replays that ran their
// proof to the terminator, Abandoned = spans dropped on a control
// discontinuity, Divergences = completed spans that contradicted their
// proof.
type ProofAuditStats struct {
	Spans       int64
	Finished    int64
	Abandoned   int64
	Divergences int64
	Details     []string
}

var (
	paSpans       atomic.Int64
	paFinished    atomic.Int64
	paAbandoned   atomic.Int64
	paDivergences atomic.Int64

	paDetailMu sync.Mutex
	paDetails  []string
)

// paDetailCap bounds the divergence details kept for ReadProofAudit.
const paDetailCap = 32

// ReadProofAudit snapshots the global audit counters.
func ReadProofAudit() ProofAuditStats {
	paDetailMu.Lock()
	details := append([]string(nil), paDetails...)
	paDetailMu.Unlock()
	return ProofAuditStats{
		Spans:       paSpans.Load(),
		Finished:    paFinished.Load(),
		Abandoned:   paAbandoned.Load(),
		Divergences: paDivergences.Load(),
		Details:     details,
	}
}

// ResetProofAudit zeroes the global audit counters.
func ResetProofAudit() {
	paSpans.Store(0)
	paFinished.Store(0)
	paAbandoned.Store(0)
	paDivergences.Store(0)
	paDetailMu.Lock()
	paDetails = nil
	paDetailMu.Unlock()
}

func paDiverge(format string, args ...any) {
	paDivergences.Add(1)
	paDetailMu.Lock()
	if len(paDetails) < paDetailCap {
		paDetails = append(paDetails, fmt.Sprintf(format, args...))
	}
	paDetailMu.Unlock()
}

// seenAccess is one concrete data access observed during a span.
type seenAccess struct {
	write bool
	page  uint64
	size  int
}

// proofAudit is the per-vCPU audit state. One span is live at a time — a
// replay of one cached block, or of one stitched trace, from its first
// instruction to its last.
type proofAudit struct {
	active bool
	proof  *absint.Proof
	blk    *dblock // identity guard against cursor invalidation; nil for a trace
	trace  bool    // the span replays a stitched trace
	idx    int     // index of the next instruction expected to dispatch
	start  int64   // Cycles+batch at span open

	sysSnap [4]uint64 // TTBR0, TTBR1, SCTLR, VBAR at span open
	panSnap bool

	seen []seenAccess
}

// SetProofAudit attaches or detaches the audit oracle on this vCPU.
func (c *VCPU) SetProofAudit(on bool) {
	if on && c.audit == nil {
		c.audit = &proofAudit{}
	} else if !on {
		c.audit = nil
	}
}

// ProofAuditEnabled reports whether the audit oracle is attached.
func (c *VCPU) ProofAuditEnabled() bool { return c.audit != nil }

// blockProof returns the block's proof, deriving it on first use and
// caching it on the block: a dblock is discarded whenever its page's code
// epoch moves, so the proof's lifetime is exactly the decoded bytes'
// lifetime.
func blockProof(b *dblock, pc uint64) *absint.Proof {
	if b.proof == nil {
		b.proof = absint.ProveBlock(pc, b.insns)
	}
	return b.proof
}

// traceProof returns the trace's composed proof, composing it on first use:
// each member block is proven and the absint factory folds the proofs along
// the stitched edges. The audit oracle is the only reader of a trace proof,
// so stitching never pays for one; this file owns every `.proof` slot
// (tools/lint), so composition lives here rather than in the stitcher. A
// trace's members and their proofs are fixed for its lifetime, so composing
// late yields exactly the proof composing at stitch time would have.
func traceProof(t *trace) *absint.Proof {
	if t.proof != nil {
		return t.proof
	}
	proofs := make([]*absint.Proof, len(t.members))
	edges := make([]absint.TraceEdge, len(t.members)-1)
	for i := range t.members {
		m := &t.members[i]
		proofs[i] = blockProof(m.blk, m.start)
		if i < len(edges) {
			edges[i] = m.edge
		}
	}
	t.proof = absint.ComposeTrace(t.members[0].start, proofs, edges)
	return t.proof
}

// noteEnter opens a span over a full-block replay beginning at pc.
func (a *proofAudit) noteEnter(c *VCPU, b *dblock, pc uint64) {
	if len(b.insns) < 2 {
		return // single-instruction blocks have no interior to audit
	}
	a.abandon()
	a.open(c, blockProof(b, pc), b)
}

// noteTraceEnter opens a span over a guarded trace replay, abandoning any
// live span first: the trace replaces the replay it was watching. A
// stitched trace the composer refuses is a stitcher bug — its shape broke
// ComposeTrace's contract — and counts as a divergence.
func (a *proofAudit) noteTraceEnter(c *VCPU, t *trace) {
	a.abandon()
	p := traceProof(t)
	if p == nil {
		paDiverge("trace %#x: stitched shape refused by ComposeTrace (%d members)",
			t.members[0].start, len(t.members))
		return
	}
	a.open(c, p, nil)
}

// open starts a span over a replay of p: of block b, or of a trace when b
// is nil.
func (a *proofAudit) open(c *VCPU, p *absint.Proof, b *dblock) {
	*a = proofAudit{
		active:  true,
		proof:   p,
		blk:     b,
		trace:   b == nil,
		start:   c.Cycles + c.batch,
		sysSnap: sysState(c),
		panSnap: c.PAN(),
		seen:    a.seen[:0],
	}
	paSpans.Add(1)
}

// sysState is the system-register state a SysregFree proof promises to keep.
func sysState(c *VCPU) [4]uint64 {
	return [4]uint64{
		c.sys[arm64.TTBR0EL1], c.sys[arm64.TTBR1EL1],
		c.sys[arm64.SCTLREL1], c.sys[arm64.VBAREL1],
	}
}

// noteDispatch observes one instruction at pc about to dispatch, from
// Step, runBlock or runTrace. The final instruction closes the span before
// its handler runs — interior effects are complete, and the final
// instruction itself (the one allowed to trap, branch, or write a system
// register) is out of scope. A block span that leaves its path abandons:
// control left the block. A trace span that leaves its path diverges:
// runTrace side-exits before any step off its stitched path, and the
// stitcher and the composer derived that path independently.
func (a *proofAudit) noteDispatch(c *VCPU, pc uint64) {
	if !a.active {
		return
	}
	p := a.proof
	if want := p.PCAt(a.idx); pc != want {
		if !a.trace {
			a.abandon()
			return
		}
		a.active = false
		paDiverge("trace %#x step %d: pc %#x, composed proof predicts %#x",
			p.PC, a.idx, pc, want)
		return
	}
	if a.idx == p.Insns-1 {
		a.finish(c)
		return
	}
	// Interior block instruction: the replay cursor must still be walking
	// the audited block, or a code write invalidated it under our feet.
	if !a.trace && c.cur.blk != a.blk {
		a.abandon()
		return
	}
	a.idx++
}

// noteAccess observes one successful charged data access.
func (a *proofAudit) noteAccess(write bool, va mem.VA, size int) {
	if !a.active {
		return
	}
	if len(a.seen) < len(a.proof.Claims)+4 {
		a.seen = append(a.seen, seenAccess{write: write, page: uint64(va) >> mem.PageShift, size: size})
	}
}

// abandon drops the live span, if any, on a control discontinuity.
func (a *proofAudit) abandon() {
	if !a.active {
		return
	}
	a.active = false
	a.blk = nil
	paAbandoned.Add(1)
}

// finish closes a completed span: every interior claim must have been
// consumed in order, proven-free state must be unchanged, and the cycle
// delta must cover the proof's minimum charge.
func (a *proofAudit) finish(c *VCPU) {
	a.active = false
	a.blk = nil
	paFinished.Add(1)
	p := a.proof
	kind := "block"
	if a.trace {
		kind = "trace"
	}

	claims := p.InteriorClaims()
	if len(a.seen) != len(claims) {
		paDiverge("%s %#x: %d interior accesses observed, proof claims %d",
			kind, p.PC, len(a.seen), len(claims))
		return
	}
	for i, cl := range claims {
		got := a.seen[i]
		if got.write != cl.Write || got.size != cl.Size {
			paDiverge("%s %#x claim %d: observed %s/%d, proof claims %s/%d",
				kind, p.PC, i, rw(got.write), got.size, rw(cl.Write), cl.Size)
			return
		}
		if cl.Known && got.page != cl.Page {
			paDiverge("%s %#x claim %d: observed page %#x, proof pins %#x",
				kind, p.PC, i, got.page, cl.Page)
			return
		}
	}
	if p.SysregFree && sysState(c) != a.sysSnap {
		paDiverge("%s %#x: sysreg state moved across a SysregFree %s", kind, p.PC, kind)
		return
	}
	if p.PANFree && c.PAN() != a.panSnap {
		paDiverge("%s %#x: PAN moved across a PANFree %s", kind, p.PC, kind)
		return
	}
	min := p.MinCharge(c.Prof.InsnCost, c.Prof.MemAccessCost,
		c.Prof.ISBCost, c.Prof.DSBCost, c.Prof.BranchCost, c.Prof.PanToggleCost)
	if got := c.Cycles + c.batch - a.start; got < min {
		paDiverge("%s %#x: charged %d cycles, proof minimum %d", kind, p.PC, got, min)
	}
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
