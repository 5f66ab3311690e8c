package cpu

import (
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// memLoop emits a hot loop with interior data traffic: store the counter,
// load it back, accumulate, n iterations, then HVC to stop.
func memLoop(n uint64) *arm64.Asm {
	a := arm64.NewAsm()
	a.MovImm(0, 0)
	a.MovImm(1, n)
	a.MovImm(2, uint64(dataVA))
	a.Label("loop")
	a.Emit(arm64.STRImm(1, 2, 0, 3))
	a.Emit(arm64.LDRImm(3, 2, 0, 3))
	a.Emit(arm64.ADDReg(0, 0, 3))
	a.Emit(arm64.SUBSImm(1, 1, 1))
	a.BCond(arm64.CondNE, "loop")
	a.Emit(arm64.HVC(0))
	return a
}

// TestProofAuditCleanLoop replays a hot loop under the audit oracle: spans
// must open and finish, and a well-formed program must never diverge from
// its block proofs.
func TestProofAuditCleanLoop(t *testing.T) {
	ResetProofAudit()
	e := newEnv(t)
	e.c.SetProofAudit(true)
	e.load(t, memLoop(64))
	e.run(t, 10000)
	if e.c.R(0) != 64*65/2 {
		t.Errorf("sum = %d, want %d", e.c.R(0), 64*65/2)
	}
	st := ReadProofAudit()
	if st.Spans == 0 || st.Finished == 0 {
		t.Errorf("audit saw no completed spans: %+v", st)
	}
	if st.Divergences != 0 {
		t.Errorf("clean loop diverged from its proofs: %+v", st)
	}
}

// TestProofAuditObservationOnly requires bit-identical emulated cycles,
// instruction counts and results with the oracle on and off — auditing may
// never perturb the measured machine.
func TestProofAuditObservationOnly(t *testing.T) {
	run := func(audit bool) (int64, int64, uint64) {
		ResetProofAudit()
		e := newEnv(t)
		e.c.SetProofAudit(audit)
		e.load(t, memLoop(100))
		e.run(t, 10000)
		return e.c.Cycles, e.c.Insns, e.c.R(0)
	}
	onCycles, onInsns, onSum := run(true)
	offCycles, offInsns, offSum := run(false)
	if onCycles != offCycles || onInsns != offInsns || onSum != offSum {
		t.Errorf("audit perturbed execution: on (%d cycles, %d insns, sum %d), off (%d, %d, %d)",
			onCycles, onInsns, onSum, offCycles, offInsns, offSum)
	}
}

// TestProofAuditDetectsClaimMismatch drives the span state machine directly
// with an access that contradicts the block's proof (wrong width) and
// requires a recorded divergence — the oracle must be able to fail.
func TestProofAuditDetectsClaimMismatch(t *testing.T) {
	ResetProofAudit()
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.LDRImm(3, 2, 0, 3)) // proof claims one 8-byte read
	a.Emit(arm64.RET(30))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]arm64.Insn, len(words))
	for i, w := range words {
		ins[i] = arm64.Decode(w)
	}
	b := &dblock{insns: ins}
	au := &proofAudit{}
	const base = 0x4000
	au.noteEnter(e.c, b, base)
	if !au.active {
		t.Fatal("span did not open")
	}
	e.c.cur = blockCursor{blk: b, idx: 1, expect: base + arm64.InsnBytes}
	au.noteDispatch(e.c, base)
	au.noteAccess(false, mem.VA(dataVA), 4) // width contradicts the claim
	au.noteDispatch(e.c, base+arm64.InsnBytes)
	st := ReadProofAudit()
	if st.Divergences != 1 {
		t.Fatalf("divergences = %d, want 1 (%+v)", st.Divergences, st)
	}
	if len(st.Details) == 0 || !strings.Contains(st.Details[0], "claim") {
		t.Errorf("divergence detail missing or unspecific: %q", st.Details)
	}
	ResetProofAudit()
	if st := ReadProofAudit(); st.Spans != 0 || st.Divergences != 0 || len(st.Details) != 0 {
		t.Errorf("reset left state behind: %+v", st)
	}
}

// TestProofAuditAbandonsOnDiscontinuity opens a span and dispatches off the
// expected path; the span must abandon without claiming a divergence.
func TestProofAuditAbandonsOnDiscontinuity(t *testing.T) {
	ResetProofAudit()
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(arm64.RET(30))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]arm64.Insn, len(words))
	for i, w := range words {
		ins[i] = arm64.Decode(w)
	}
	b := &dblock{insns: ins}
	au := &proofAudit{}
	au.noteEnter(e.c, b, 0x4000)
	au.noteDispatch(e.c, 0x9999000) // exception vector, not the block
	st := ReadProofAudit()
	if au.active {
		t.Error("span survived a control discontinuity")
	}
	if st.Abandoned != 1 || st.Divergences != 0 {
		t.Errorf("abandoned = %d, divergences = %d, want 1, 0", st.Abandoned, st.Divergences)
	}
}

// TestProofAuditTraceSpans replays a stitched chain under the audit oracle:
// trace spans must open and finish with zero divergences whether the oracle
// was attached from boot or only after the traces were stitched. Either way
// the composed proof is built on the trace's first audited entry.
func TestProofAuditTraceSpans(t *testing.T) {
	for _, late := range []bool{false, true} {
		e := newEnv(t)
		e.c.SetProofAudit(!late)
		e.c.SetTraceHotThreshold(2)
		e.load(t, chainProgram())
		e.run(t, 1000)
		e.rerun(t, 1000)
		e.rerun(t, 1000) // stitch pass
		key := e.c.Decoded.keyFor(e.c, uint64(codeVA))
		tr := e.c.tcache.traces[key]
		if tr == nil {
			t.Fatalf("late=%v: no trace at the program entry", late)
		}
		if tr.proof != nil {
			t.Errorf("late=%v: proof composed before the trace's first entry", late)
		}
		e.c.SetProofAudit(true)
		e.c.flushTraceStats()
		before := ReadTraceStats()
		ResetProofAudit()
		e.rerun(t, 1000)
		e.rerun(t, 1000)
		d := ReadTraceStats().Sub(before)
		st := ReadProofAudit()
		if d.Completed == 0 {
			t.Fatalf("late=%v: no traced pass completed", late)
		}
		if tr.proof == nil {
			t.Errorf("late=%v: audited entry did not compose the trace proof", late)
		}
		if st.Spans < int64(d.Completed) || st.Finished < int64(d.Completed) {
			t.Errorf("late=%v: %d traced passes completed, audit opened %d and finished %d spans",
				late, d.Completed, st.Spans, st.Finished)
		}
		if st.Divergences != 0 {
			t.Errorf("late=%v: trace spans diverged: %q", late, st.Details)
		}
	}
}

// TestStitchWithoutAuditProvesNothing: with the oracle detached, stitching
// does no proof work. Package cpu calls ProveBlock only to fill a .proof
// slot, so every slot must still be empty after the chain has stitched and
// replayed traced.
func TestStitchWithoutAuditProvesNothing(t *testing.T) {
	e := newEnv(t)
	e.c.SetTraceHotThreshold(2)
	e.load(t, chainProgram())
	e.run(t, 1000)
	for i := 0; i < 4; i++ {
		e.rerun(t, 1000)
	}
	if e.c.TraceCacheLen() == 0 {
		t.Fatal("no trace stitched")
	}
	for key, tr := range e.c.tcache.traces {
		if tr.proof != nil {
			t.Errorf("trace %#x carries a composed proof with the audit off", key)
		}
		for _, m := range tr.members {
			if m.blk.proof != nil {
				t.Errorf("trace %#x member at %#x was proven with the audit off", key, m.start)
			}
		}
	}
	for key, b := range e.c.Decoded.blocks {
		if b.proof != nil {
			t.Errorf("block %#x was proven with the audit off", key)
		}
	}
}
