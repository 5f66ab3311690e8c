package cpu

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// forkEnv forks e's physical memory and vCPU and wraps them with a cloned
// stage-1 walker so the child can load and rerun programs on its own side
// of the COW boundary.
func (e *env) fork(t testing.TB) *env {
	t.Helper()
	pm2 := e.pm.Fork()
	c2 := e.c.Fork(pm2)
	return &env{c: c2, pm: pm2, s1: e.s1.CloneFor(pm2)}
}

// TestForkArchitecturalIdentity: a forked vCPU must agree with its parent on
// every digest-visible field — registers, PC, PSTATE, cycle and instruction
// totals, TLB hit/miss history — while starting with cold host-side caches
// (the decode cache is observability, not architecture).
func TestForkArchitecturalIdentity(t *testing.T) {
	e := newEnv(t)
	e.load(t, sumProgram(50))
	e.run(t, 1000)
	f := e.fork(t)

	if f.c.R(0) != e.c.R(0) || f.c.PC != e.c.PC || f.c.PState != e.c.PState {
		t.Error("forked register state differs from parent")
	}
	if f.c.Cycles != e.c.Cycles || f.c.Insns != e.c.Insns {
		t.Errorf("fork cycle accounting differs: %d/%d vs %d/%d",
			f.c.Cycles, f.c.Insns, e.c.Cycles, e.c.Insns)
	}
	if f.c.Stats.TLBHits != e.c.Stats.TLBHits || f.c.Stats.TLBMisses != e.c.Stats.TLBMisses {
		t.Error("fork TLB statistics differ from parent")
	}
	if got := f.c.DecodeCacheLen(); got != 0 {
		t.Errorf("forked decode cache holds %d blocks, want 0 (host caches start cold)", got)
	}

	// Both sides rerun the same program and must stay in lockstep.
	e.rerun(t, 1000)
	f.rerun(t, 1000)
	if f.c.R(0) != e.c.R(0) || f.c.Cycles != e.c.Cycles || f.c.Insns != e.c.Insns {
		t.Errorf("post-fork reruns diverged: x0 %d vs %d, cycles %d vs %d",
			f.c.R(0), e.c.R(0), f.c.Cycles, e.c.Cycles)
	}
}

// TestForkChildSelfModifyIsolated: the child rewrites its own code after the
// fork; the rewrite must privatize the code frame, bump the CHILD's code
// epochs, and leave the parent's memory, cached blocks, and counters
// untouched — the parent replays its warm blocks with zero stale rejects.
func TestForkChildSelfModifyIsolated(t *testing.T) {
	e := newEnv(t)
	e.load(t, sumProgram(10))
	e.run(t, 1000)
	if e.c.DecodeCacheLen() == 0 {
		t.Fatal("parent cache not warm before fork")
	}
	f := e.fork(t)

	// Child loads and runs the self-patching program (same shape as
	// TestSelfModifyingCodeReDecode): first call returns 1, then the MOVZ
	// word is rewritten through an emulated store, second call must see 2.
	a := arm64.NewAsm()
	a.B("main")
	a.Label("patch")
	a.Emit(arm64.MOVZ(0, 1, 0))
	a.Emit(arm64.RET(30))
	a.Label("main")
	a.BL("patch")
	a.Emit(arm64.ADDReg(9, 0, 31))
	a.ADR(1, "patch")
	a.MovImm(2, uint64(arm64.MOVZ(0, 2, 0)))
	a.Emit(arm64.STRImm(2, 1, 0, 2))
	a.BL("patch")
	a.Emit(arm64.HVC(0))
	f.load(t, a)

	parentInval := e.c.Stats.CodeInvalidations
	f.rerun(t, 1000)
	if f.c.R(9) != 1 || f.c.R(0) != 2 {
		t.Errorf("child self-modify: first=%d last=%d, want 1 then 2", f.c.R(9), f.c.R(0))
	}
	if f.c.Stats.CodeInvalidations == 0 {
		t.Error("child's store to its executable page did not bump the child's code epochs")
	}
	if e.c.Stats.CodeInvalidations != parentInval {
		t.Error("child's code rewrite bumped the PARENT's code epochs")
	}
	if e.pm.COWCopies() != 0 {
		t.Errorf("parent privatized %d frames without writing", e.pm.COWCopies())
	}
	if f.pm.COWCopies() == 0 {
		t.Error("child's code rewrite did not privatize the shared frame")
	}

	// The parent still runs the original program from its untouched frame
	// and its warm blocks survive: no stale rejects, same sum.
	staleBefore := e.c.Stats.CodeStale
	e.rerun(t, 1000)
	if e.c.R(0) != 55 {
		t.Errorf("parent sum after child rewrite = %d, want 55 (child write leaked)", e.c.R(0))
	}
	if e.c.Stats.CodeStale != staleBefore {
		t.Error("parent blocks went stale after a child-side write")
	}
}

// TestForkEpochBumpOnlyCodePages: after a fork, a guest store to a plain
// data page privatizes the frame but must NOT bump code epochs; a store to
// the page holding the executing code must. Each store costs exactly one
// COW copy.
func TestForkEpochBumpOnlyCodePages(t *testing.T) {
	e := newEnv(t)
	// Warm the data page so it is shared (materialized) across the fork.
	if err := e.pm.Write(mustPA(t, e.s1, dataVA), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	e.load(t, sumProgram(5))
	e.run(t, 1000)
	f := e.fork(t)

	// Store to the data page: one copy, zero epoch bumps.
	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA))
	a.MovImm(2, 0x5a)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.HVC(0))
	f.load(t, a) // privatizes the code frame: copy #1
	copies := f.pm.COWCopies()
	inval := f.c.Stats.CodeInvalidations
	f.rerun(t, 100)
	if got := f.pm.COWCopies() - copies; got != 1 {
		t.Errorf("store to shared data page made %d copies, want exactly 1", got)
	}
	if f.c.Stats.CodeInvalidations != inval {
		t.Error("store to a non-executable data page bumped code epochs")
	}

	// Store into the executing code page (past the program): epoch bump.
	// Loading fresh code is a host-side patch, so invalidate explicitly
	// (the module-writer contract) and measure the guest store's bump on
	// top of that.
	a2 := arm64.NewAsm()
	a2.MovImm(1, uint64(codeVA)+0x800)
	a2.MovImm(2, 0x5a)
	a2.Emit(arm64.STRImm(2, 1, 0, 3))
	a2.Emit(arm64.HVC(0))
	f.load(t, a2)
	f.c.InvalidateCode(codeVA)
	inval = f.c.Stats.CodeInvalidations
	f.rerun(t, 100)
	if f.c.Stats.CodeInvalidations == inval {
		t.Error("store into the executing code page did not bump the child's code epochs")
	}
}

// TestForkChildTraceInvalidation mirrors the PR 9 trace-staleness tests
// across the fork boundary: parent and child both stitch traces over the
// same hot loop; the child's code rewrite drops the CHILD's traces while
// the parent's stay live.
func TestForkChildTraceInvalidation(t *testing.T) {
	// One program, two paths picked by x10 so no code reload is needed:
	// x10=0 runs the stitchable chain (loops never stitch), x10=1 stores
	// into the code page itself.
	a := arm64.NewAsm()
	a.Emit(arm64.SUBSImm(11, 10, 0)) // flags from x10
	a.BCond(arm64.CondEQ, "chain")
	a.MovImm(1, uint64(codeVA)+0x800)
	a.MovImm(2, 0x5a)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.HVC(0))
	a.Label("chain")
	a.MovImm(0, 0)
	a.B("b1")
	a.Label("b1")
	a.Emit(arm64.ADDImm(0, 0, 1, false))
	a.B("b2")
	a.Label("b2")
	a.Emit(arm64.ADDImm(0, 0, 2, false))
	a.BL("leaf")
	a.Emit(arm64.ADDImm(0, 0, 4, false))
	a.Emit(arm64.HVC(0))
	a.Label("leaf")
	a.Emit(arm64.ADDImm(0, 0, 8, false))
	a.Emit(arm64.RET(30))

	e := newEnv(t)
	e.c.SetTraces(true)
	e.c.SetTraceHotThreshold(2)
	e.load(t, a)
	e.run(t, 1000)
	for i := 0; i < 4; i++ {
		e.rerun(t, 1000)
	}
	if e.c.TraceCacheLen() == 0 {
		t.Fatal("parent stitched no traces over the hot chain")
	}
	f := e.fork(t)
	if !f.c.TracesEnabled() {
		t.Fatal("forked child ignored the enabled trace default")
	}
	f.c.SetTraceHotThreshold(2)
	for i := 0; i < 4; i++ {
		f.rerun(t, 1000)
	}
	if f.c.TraceCacheLen() == 0 {
		t.Fatal("child stitched no traces after fork")
	}

	// Child takes the patch path: the store lands on the traced page, so
	// the CHILD's traces drop eagerly via the epoch hook; the parent's
	// stay live and keep replaying.
	f.c.X[10] = 1
	f.rerun(t, 1000)
	if got := f.c.TraceCacheLen(); got != 0 {
		t.Errorf("child keeps %d traces after rewriting its code page", got)
	}
	if e.c.TraceCacheLen() == 0 {
		t.Error("parent's traces were dropped by a child-side rewrite")
	}
	e.rerun(t, 1000)
	if e.c.R(0) != 15 {
		t.Errorf("parent chain sum = %d, want 15", e.c.R(0))
	}
}

// mustPA resolves a mapped VA's physical frame through the stage-1 walker.
func mustPA(t testing.TB, s1 *mem.Stage1, va mem.VA) mem.PA {
	t.Helper()
	res, err := s1.Walk(va)
	if err != nil || !res.Found {
		t.Fatalf("walk %v: %+v, %v", va, res, err)
	}
	return res.PA
}
