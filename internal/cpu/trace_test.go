package cpu

// Trace-compiler regression suite: stitching across direct branches and
// BL/RET pairs, the staleness chokepoints (self-modifying code inside a
// stitched trace, guest TLBI, ASID switches, cross-page invalidation), and
// both caches' clear at their caps. Every scenario runs the
// identical guest sequence with traces on and off and requires bit-identical
// emulated cycles, instruction counts, results and TLB statistics — the
// trace compiler may only remove host work, never emulated work.

import (
	"reflect"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// chainProgram is the canonical stitchable shape: a run of single-entry
// blocks linked by direct B edges plus a BL into a leaf whose RET balances
// the call, ending at HVC. One pass adds 15 to x0. Loop back-edges never
// stitch, so sumProgram-style loops are useless here.
func chainProgram() *arm64.Asm {
	a := arm64.NewAsm()
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
	return a
}

// traceSig is the emulated identity surface the trace compiler must not move.
type traceSig struct {
	cycles, insns      int64
	x0                 uint64
	tlbHits, tlbMisses uint64
	codeHits           uint64
}

func sig(e *env) traceSig {
	return traceSig{
		cycles: e.c.Cycles, insns: e.c.Insns, x0: e.c.R(0),
		tlbHits: e.c.Stats.TLBHits, tlbMisses: e.c.Stats.TLBMisses,
		codeHits: e.c.Stats.CodeHits,
	}
}

func compareSigs(t *testing.T, on, off traceSig) {
	t.Helper()
	if on != off {
		t.Errorf("traced run diverged from block pipeline:\n  traces on  %+v\n  traces off %+v", on, off)
	}
}

// TestTraceStitchReplayIdentity checks the basic lifecycle: a chain of hot
// blocks stitches into one superblock (including the BL/RET pair), replays
// to completion, and stays bit-identical to the untraced pipeline.
func TestTraceStitchReplayIdentity(t *testing.T) {
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, chainProgram())
		e.run(t, 1000)
		for i := 0; i < 4; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	if on.x0 != 15 {
		t.Errorf("x0 = %d, want 15", on.x0)
	}
	if d.Stitched == 0 {
		t.Fatal("hot chain never stitched")
	}
	if d.Entered == 0 || d.Completed == 0 {
		t.Errorf("trace never replayed to completion: %+v", d)
	}
	if d.InsnsRun == 0 {
		t.Error("no instructions retired inside traces")
	}
}

// TestTraceSnapshotShape checks the observation surface on a live trace:
// member shape, epoch validity, and the per-step PC/raw lists.
func TestTraceSnapshotShape(t *testing.T) {
	e := newEnv(t)
	e.c.SetTraceHotThreshold(2)
	e.load(t, chainProgram())
	// First-touch decodes don't count as hot entries, so threshold 2
	// stitches on the third pass.
	e.run(t, 1000)
	e.rerun(t, 1000)
	e.rerun(t, 1000)
	if e.c.TraceCacheLen() == 0 {
		t.Fatal("no trace stitched")
	}
	var entry *TraceInfo
	for i, ti := range e.c.TraceSnapshot() {
		if ti.EntryPC == uint64(codeVA) {
			entry = &e.c.TraceSnapshot()[i]
		}
	}
	if entry == nil {
		t.Fatalf("no trace keyed at the program entry: %+v", e.c.TraceSnapshot())
	}
	// MovImm(0,0)+B, ADD+B, ADD+BL, ADD+RET, ADD+HVC: 5 blocks, 10 insns.
	if entry.Blocks != 5 || entry.Insns != 10 || entry.Pages != 1 {
		t.Errorf("trace shape = %d blocks / %d insns / %d pages, want 5/10/1", entry.Blocks, entry.Insns, entry.Pages)
	}
	if !entry.EpochOK {
		t.Errorf("fresh trace not live: %+v", entry)
	}
	if len(entry.PCs) != entry.Insns || len(entry.Raw) != entry.Insns {
		t.Errorf("step lists %d/%d, want %d", len(entry.PCs), len(entry.Raw), entry.Insns)
	}
	// Steps follow execution order: the BL's leaf precedes the return-site
	// block, so the final word is the continuation's HVC.
	if entry.PCs[0] != uint64(codeVA) || entry.Raw[len(entry.Raw)-1] != arm64.HVC(0) {
		t.Errorf("step order wrong: first PC %#x, last word %#x", entry.PCs[0], entry.Raw[len(entry.Raw)-1])
	}
}

// smcProgram rewrites its own entry instruction, once from inside a
// stitched trace. x9 is the patchable immediate. The tail block counts runs in the data
// page and CSELs the store target: the scratch slot at dataVA+8 on most
// runs, and the entry MOVZ — rewriting x9 = 1 into x9 = 2 — on runs 4
// and 5. Run 4 is the first *traced* pass under threshold 2, so the first
// patch fires from inside the stitched trace (side-exit); the second
// patch bumps the page epoch again, clearing the one-instruction suffix
// block the side-exit resume decoded at the HVC — that fragment shadows
// the tail block's rebuild, and only its eviction lets the full chain
// re-form and re-stitch.
func smcProgram() *arm64.Asm {
	a := arm64.NewAsm()
	a.Label("entry")
	a.Emit(arm64.MOVZ(9, 1, 0))
	a.B("mid")
	a.Label("mid")
	a.Emit(arm64.ADDReg(0, 0, 9))
	a.B("tail")
	a.Label("tail")
	a.MovImm(10, uint64(dataVA))
	a.Emit(arm64.LDRImm(5, 10, 0, 3))
	a.Emit(arm64.ADDImm(5, 5, 1, false))
	a.Emit(arm64.STRImm(5, 10, 0, 3))
	a.Emit(arm64.UBFM(6, 5, 1, 63)) // x6 = run >> 1
	a.Emit(arm64.SUBSImm(6, 6, 2))  // Z set on runs 4 and 5
	a.ADR(1, "entry")
	a.MovImm(3, uint64(dataVA)+8)
	a.Emit(arm64.CSEL(4, 1, 3, arm64.CondEQ))
	a.MovImm(2, uint64(arm64.MOVZ(9, 2, 0)))
	a.Emit(arm64.STRImm(2, 4, 0, 2))
	a.Emit(arm64.HVC(0))
	return a
}

// TestTraceSMCInsideStitchedTrace executes a store that rewrites an earlier
// instruction of the *currently running* trace: the post-dispatch generation
// check must side-exit, the entry guard must refuse and drop the stale trace
// on the next pass, the rewritten code must run on that pass, and a warm
// re-stitch must follow — all bit-identical to the untraced pipeline.
func TestTraceSMCInsideStitchedTrace(t *testing.T) {
	const runs = 9
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, smcProgram())
		e.run(t, 1000)
		for i := 1; i < runs; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	// Runs 1-4 add 1 (the patch lands after the ADD of run 4), runs 5-9 add 2.
	if want := uint64(4 + 5*2); on.x0 != want {
		t.Errorf("x0 = %d, want %d (stale traced code executed?)", on.x0, want)
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want >= 2 (no re-stitch after the rewrite)", d.Stitched)
	}
	if d.Invalidated == 0 {
		t.Error("in-trace code rewrite did not invalidate the trace")
	}
	if d.SideExits == 0 {
		t.Error("in-trace code rewrite did not side-exit the running trace")
	}
	if d.Completed == 0 {
		t.Error("re-stitched trace never ran to completion")
	}
}

// TestTraceGuestTLBIMidTraceLifetime stitches the chain, then has the guest
// execute a TLBI from a separate entry point while the trace is live: the
// wholesale invalidation bumps every code-page generation the entry guard
// froze, so the next pass's guard refuses and drops the stale trace. (A TLBI
// cannot live *inside* a trace — it is in the never-stitch-across terminator
// class, and a block that invalidates everything each pass never gets hot in
// the first place.) The chain must re-decode, re-stitch and replay
// bit-identically afterwards.
func TestTraceGuestTLBIMidTraceLifetime(t *testing.T) {
	prog := chainProgram()
	prog.Label("tlbi")
	prog.Emit(arm64.TLBIVMALLE1())
	prog.Emit(arm64.HVC(0))
	tlbiOff, err := prog.Offset("tlbi")
	if err != nil {
		t.Fatal(err)
	}
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, prog)
		// Decode, hot, stitch, traced pass.
		e.run(t, 1000)
		for i := 0; i < 3; i++ {
			e.rerun(t, 1000)
		}
		// Guest TLBI from its own entry point while the trace is live.
		e.c.SetEL(arm64.EL1)
		e.c.PC = uint64(codeVA) + uint64(tlbiOff)
		e.run(t, 100)
		// Everything re-decodes from scratch: decode, hot, stitch, traced.
		for i := 0; i < 4; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	if want := uint64(15); on.x0 != want {
		t.Errorf("x0 = %d, want %d", on.x0, want)
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want >= 2 (TLBI must force a re-stitch)", d.Stitched)
	}
	if d.Invalidated == 0 {
		t.Error("guest TLBI did not invalidate the stitched trace")
	}
	if d.Completed < 2 {
		t.Errorf("completed %d traced passes, want >= 2 (before and after the TLBI)", d.Completed)
	}
}

// TestTraceASIDSwitchKeysSeparately runs the same chain under two address
// spaces (same code frame, ASIDs 1 and 2): each context stitches its own
// trace, and switching between them must never invalidate either — the
// context tuple is part of the trace key, so the first space's trace replays
// untouched after a round trip through the second.
func TestTraceASIDSwitchKeysSeparately(t *testing.T) {
	run := func(traces bool) (traceSig, *env) {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		s1b, err := mem.NewStage1(e.pm, 2)
		if err != nil {
			t.Fatal(err)
		}
		codeRes, err := e.s1.Walk(codeVA)
		if err != nil || !codeRes.Found {
			t.Fatalf("code page missing: %v", err)
		}
		if err := s1b.Map(codeVA, codeRes.PA, mem.AttrNG); err != nil {
			t.Fatal(err)
		}
		e.load(t, chainProgram())
		ttbrA := MakeTTBR(uint64(e.s1.Root()), e.s1.ASID())
		ttbrB := MakeTTBR(uint64(s1b.Root()), 2)
		e.run(t, 1000)
		// Three more A passes (hot, stitch, enter), four B passes (decode,
		// hot, stitch, enter), then back to A: its trace must still be live.
		for _, ttbr := range []uint64{ttbrA, ttbrA, ttbrA, ttbrB, ttbrB, ttbrB, ttbrB, ttbrA} {
			e.c.SetSys(arm64.TTBR0EL1, ttbr)
			e.rerun(t, 1000)
		}
		return sig(e), e
	}
	before := ReadTraceStats()
	on, e := run(true)
	d := ReadTraceStats().Sub(before)
	off, _ := run(false)
	compareSigs(t, on, off)
	asids := map[uint16]bool{}
	for _, ti := range e.c.TraceSnapshot() {
		if ti.EntryPC == uint64(codeVA) {
			asids[ti.ASID] = true
		}
	}
	if !asids[1] || !asids[2] {
		t.Errorf("entry traces exist for ASIDs %v, want both 1 and 2", asids)
	}
	if d.Invalidated != 0 {
		t.Errorf("ASID switching invalidated %d traces; context-keyed traces must survive", d.Invalidated)
	}
	if d.Stitched < 2 || d.Entered < 2 {
		t.Errorf("stitch/enter = %d/%d, want both contexts traced: %+v", d.Stitched, d.Entered, d)
	}
}

// TestTraceCrossPageSecondPageInvalidation stitches a trace spanning two
// code pages and invalidates only the second: the trace must report stale
// even though its entry page is untouched, its guard must drop it, and the
// rerun must re-stitch bit-identically.
func TestTraceCrossPageSecondPageInvalidation(t *testing.T) {
	load2 := func(e *env) {
		// Page 0: add 1, branch to the start of page 1 (B covers the gap).
		page0 := arm64.NewAsm()
		page0.Emit(arm64.ADDImm(0, 0, 1, false))
		page0.Emit(arm64.B(int64(mem.PageSize) - arm64.InsnBytes))
		e.load(t, page0)
		// Page 1: add 2, exit.
		va := codeVA + mem.VA(mem.PageSize)
		pa, err := e.pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.s1.Map(va, pa, mem.AttrNG); err != nil {
			t.Fatal(err)
		}
		page1, err := arm64.NewAsm().
			Emit(arm64.ADDImm(0, 0, 2, false)).
			Emit(arm64.HVC(0)).Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.pm.Write(pa, page1); err != nil {
			t.Fatal(err)
		}
	}
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		load2(e)
		e.run(t, 1000)
		e.rerun(t, 1000)
		e.rerun(t, 1000) // stitch pass
		// twoPage reports whether the two-page entry trace is cached and
		// whether the entry guard would still admit it.
		twoPage := func() (cached, live bool) {
			for _, ti := range e.c.TraceSnapshot() {
				if ti.EntryPC == uint64(codeVA) && ti.Pages == 2 {
					return true, ti.EpochOK
				}
			}
			return false, false
		}
		if cached, live := twoPage(); traces && (!cached || !live) {
			t.Fatalf("no live two-page trace stitched: %+v", e.c.TraceSnapshot())
		}
		e.c.InvalidateCode(codeVA + mem.VA(mem.PageSize))
		if cached, live := twoPage(); traces && (!cached || live) {
			t.Errorf("second-page invalidation: two-page trace cached=%v live=%v, want a cached stale trace", cached, live)
		}
		// Re-decode the bumped page, re-stitch, and replay the fresh trace.
		for i := 0; i < 3; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	// x0 accumulates 3 per pass across the six passes (no reset in this
	// program).
	if on.x0 != 18 {
		t.Errorf("x0 = %d, want 18", on.x0)
	}
	if d.Invalidated == 0 {
		t.Error("cross-page trace survived second-page invalidation")
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want a re-stitch after the invalidation", d.Stitched)
	}
}

// TestTraceBlockEvictionDropsDependents overflows the BlockCache so its
// clear at the cap claims the stitched chain's member blocks: the reset hook
// must drop the trace (a dangling trace would keep replaying blocks the
// cache no longer owns), and the tail replay of the original program must
// re-decode and re-stitch bit-identically.
func TestTraceBlockEvictionDropsDependents(t *testing.T) {
	const sweepPages = maxCachedBlocks/1024 + 1
	// loadSweepAbove fills pages 1..sweepPages above the program page with
	// single-instruction `B #4` blocks (the loadBlockSweep shape, offset up
	// one page so the chain program survives), ending in HVC.
	loadSweepAbove := func(e *env) {
		const bPlus4 = 0x14000001
		for p := 1; p <= sweepPages; p++ {
			va := codeVA + mem.VA(uint64(p)*uint64(mem.PageSize))
			pa, err := e.pm.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.s1.Map(va, pa, mem.AttrNG); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, mem.PageSize)
			for i := 0; i < len(buf); i += 4 {
				w := uint32(bPlus4)
				if p == sweepPages && i == len(buf)-4 {
					w = arm64.HVC(0)
				}
				buf[i] = byte(w)
				buf[i+1] = byte(w >> 8)
				buf[i+2] = byte(w >> 16)
				buf[i+3] = byte(w >> 24)
			}
			if err := e.pm.Write(pa, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	const sweepInsns = sweepPages * 1024
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, chainProgram())
		loadSweepAbove(e)
		e.run(t, 1000)
		e.rerun(t, 1000)
		e.rerun(t, 1000) // stitch pass
		e.rerun(t, 1000) // traced pass
		if traces && e.c.TraceCacheLen() == 0 {
			t.Fatal("chain never stitched before the sweep")
		}
		// Sweep enough distinct blocks to overflow the cache, whose clear
		// takes the chain's member blocks with it.
		e.c.SetEL(arm64.EL1)
		e.c.PC = uint64(codeVA) + uint64(mem.PageSize)
		e.run(t, sweepInsns+10)
		if traces {
			for _, ti := range e.c.TraceSnapshot() {
				if ti.EntryPC == uint64(codeVA) {
					t.Errorf("trace dangles after its blocks were cleared: %+v", ti)
				}
			}
		}
		// Tail replay of the original program: re-decode, re-stitch, rerun.
		for i := 0; i < 3; i++ {
			e.rerun(t, 1000)
		}
		return sig(e)
	}
	before := ReadTraceStats()
	on := run(true)
	d := ReadTraceStats().Sub(before)
	off := run(false)
	compareSigs(t, on, off)
	if on.x0 != 15 {
		t.Errorf("tail replay x0 = %d, want 15", on.x0)
	}
	if d.Invalidated == 0 {
		t.Error("the cache clear did not drop the dependent trace")
	}
	if d.Stitched < 2 {
		t.Errorf("stitched %d times, want a re-stitch after the clear", d.Stitched)
	}
}

// TestTraceToggleAndDefaults covers the control surface: SetTraces(false)
// drops stitched traces and stops stitching, and the process-wide default
// seeds new vCPUs (the lzbench -interp path).
func TestTraceToggleAndDefaults(t *testing.T) {
	e := newEnv(t)
	e.c.SetTraceHotThreshold(2)
	if !e.c.TracesEnabled() {
		t.Fatal("traces not enabled by default")
	}
	e.load(t, chainProgram())
	e.run(t, 1000)
	e.rerun(t, 1000)
	e.rerun(t, 1000)
	if e.c.TraceCacheLen() == 0 {
		t.Fatal("no trace stitched")
	}
	e.c.SetTraces(false)
	if e.c.TracesEnabled() || e.c.TraceCacheLen() != 0 {
		t.Errorf("disable left %d traces live", e.c.TraceCacheLen())
	}
	e.rerun(t, 1000)
	if e.c.TraceCacheLen() != 0 {
		t.Error("disabled compiler stitched a trace")
	}
	if e.c.R(0) != 15 {
		t.Errorf("x0 = %d, want 15", e.c.R(0))
	}

	oldOn := TraceDefault()
	defer SetTraceDefault(oldOn)
	SetTraceDefault(false)
	if New(arm64.ProfileCortexA55(), mem.NewPhysMem(1<<20)).TracesEnabled() {
		t.Error("new vCPU ignored the disabled trace default")
	}
	SetTraceDefault(true)
	if !New(arm64.ProfileCortexA55(), mem.NewPhysMem(1<<20)).TracesEnabled() {
		t.Error("new vCPU ignored the enabled trace default")
	}
}

// TestTraceCacheBoundedUnderChurn drives 2,000 cycles of stitch → code
// invalidation on the chain program, several times past twice the trace
// cap: each rerun after an invalidation reaches every stale trace's key, so
// its guard drops every trace exactly once and nothing is left behind.
func TestTraceCacheBoundedUnderChurn(t *testing.T) {
	e := newEnv(t)
	e.c.SetTraceHotThreshold(1)
	e.load(t, chainProgram())
	e.run(t, 1000)
	before := ReadTraceStats()
	const cycles = 2000
	for i := 0; i < cycles; i++ {
		e.rerun(t, 1000) // blocks hot: stitch
		if e.c.TraceCacheLen() == 0 {
			t.Fatalf("cycle %d: nothing stitched", i)
		}
		e.c.InvalidateCode(codeVA)
		e.rerun(t, 1000) // re-decode the bumped page
	}
	e.c.flushTraceStats()
	d := ReadTraceStats().Sub(before)
	if d.Stitched <= 2*maxTraces {
		t.Fatalf("stitched %d traces, want the churn past twice the trace cap %d", d.Stitched, 2*maxTraces)
	}
	if e.c.TraceCacheLen() != 0 {
		t.Errorf("%d traces cached after the final invalidation and rerun, want 0", e.c.TraceCacheLen())
	}
	if d.Invalidated != d.Stitched {
		t.Errorf("%d traces dropped of %d stitched, want each dropped exactly once", d.Invalidated, d.Stitched)
	}
	if e.c.R(0) != 15 {
		t.Errorf("x0 = %d, want 15", e.c.R(0))
	}
}

// TestTraceCacheClearsAtCap chains half again as many independent traces
// as maxTraces and, at threshold 1, stitches each one. A unit is two blocks,
// `ADD; B #4` and `ADR; BR` to the next unit: the indirect branch ends every
// walk and enters the next unit from outside any trace, so each unit's
// entry stitches its own trace (a member never starts a second one). The
// stitching pass steps one instruction at a time, so every stitch is
// observed: the cache never holds more than the cap, and the stitch that
// finds it full clears all maxTraces traces (Invalidated counts each)
// before installing its own. The surviving tail traces then replay, and the
// entries the clear emptied stitch again. All of it stays bit-identical to
// the untraced pipeline.
func TestTraceCacheClearsAtCap(t *testing.T) {
	const units = maxTraces + maxTraces/2
	const unitBytes = 4 * arm64.InsnBytes
	words := make([]uint32, 0, 4*units+1)
	for i := 0; i < units; i++ {
		words = append(words, arm64.ADDImm(0, 0, 1, false), bPlus4,
			arm64.ADR(1, 2*arm64.InsnBytes), arm64.BR(1))
	}
	words = append(words, arm64.HVC(0))

	// pass runs the chain from unit `from` to its HVC in Run slices of
	// the given size, checking the cap after every slice, and returns how
	// often the cache was cleared.
	pass := func(e *env, from int, slice int64) int {
		clears, prev := 0, e.c.TraceCacheLen()
		runSliced(t, e, uint64(codeVA)+uint64(from)*unitBytes, slice, int64(len(words)), func() {
			n := e.c.TraceCacheLen()
			if n > maxTraces {
				t.Fatalf("%d live traces, cap %d", n, maxTraces)
			}
			if n < prev {
				clears++
			}
			prev = n
		})
		return clears
	}
	type result struct {
		sig traceSig
		x   [32]uint64
	}
	run := func(traces bool) result {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(1)
		loadWords(t, e, words)
		pass(e, 0, 1) // decode every block
		before := ReadTraceStats()
		clears := pass(e, 0, 1) // enter every unit: one stitch each
		d := ReadTraceStats().Sub(before)
		if traces {
			if clears != 1 || d.Invalidated != maxTraces || d.Stitched != units {
				t.Errorf("stitching pass: %d clears, %d invalidated, %d stitched; want 1, %d, %d",
					clears, d.Invalidated, d.Stitched, maxTraces, units)
			}
			if n := e.c.TraceCacheLen(); n != units-maxTraces {
				t.Errorf("%d traces live after the clear, want %d", n, units-maxTraces)
			}
		}
		before = ReadTraceStats()
		pass(e, maxTraces, 1000) // the tail: its traces survived the clear
		if d := ReadTraceStats().Sub(before); traces && (d.Entered == 0 || d.InsnsRun == 0) {
			t.Errorf("surviving traces never replayed: %+v", d)
		}
		before = ReadTraceStats()
		pass(e, 0, 1000) // the head: its traces were cleared
		if d := ReadTraceStats().Sub(before); traces && d.Stitched < maxTraces {
			t.Errorf("%d stitches after the clear, want the %d cleared entries to stitch again",
				d.Stitched, maxTraces)
		}
		return result{sig: sig(e), x: e.c.X}
	}
	on := run(true)
	off := run(false)
	compareSigs(t, on.sig, off.sig)
	if on.x != off.x {
		t.Errorf("registers diverged:\n  traces on  %v\n  traces off %v", on.x, off.x)
	}
	if want := uint64(3*units + units - maxTraces); on.sig.x0 != want {
		t.Errorf("x0 = %d, want %d", on.sig.x0, want)
	}
}

// TestTraceGuardDropsStaleTrace bumps the chain's code epochs three ways —
// its own page, a sibling page in its 2MB region, and a wholesale TLB
// invalidation — and checks the one staleness rule for each: the bump only
// makes the cached traces stale, the next rerun's entry guards drop each of
// them exactly once, and the emulated result matches the untraced run.
func TestTraceGuardDropsStaleTrace(t *testing.T) {
	for _, bump := range []struct {
		name string
		fn   func(e *env)
	}{
		{"same-page", func(e *env) { e.c.InvalidateCode(codeVA) }},
		{"sibling-page", func(e *env) { e.c.InvalidateCode(codeVA + mem.VA(mem.PageSize)) }},
		{"wholesale", func(e *env) { e.c.TLB.InvalidateAll() }},
	} {
		run := func(traces bool) traceSig {
			e := newEnv(t)
			e.c.SetTraces(traces)
			e.c.SetTraceHotThreshold(2)
			e.load(t, chainProgram())
			e.run(t, 1000)
			e.rerun(t, 1000)
			e.rerun(t, 1000) // stitch pass
			cached := e.c.TraceCacheLen()
			if traces && cached == 0 {
				t.Fatalf("%s: no trace stitched", bump.name)
			}
			bump.fn(e)
			if traces {
				snap := e.c.TraceSnapshot()
				if len(snap) != cached {
					t.Errorf("%s: %d of %d traces cached right after the bump, want all", bump.name, len(snap), cached)
				}
				for _, ti := range snap {
					if ti.EpochOK {
						t.Errorf("%s: trace at %#x still reports live after the bump", bump.name, ti.EntryPC)
					}
				}
			}
			for i := 0; i < 2; i++ {
				before := ReadTraceStats()
				e.rerun(t, 1000)
				d := ReadTraceStats().Sub(before)
				want := uint64(0)
				if i == 0 {
					want = uint64(cached) // the first rerun retires every stale trace once
				}
				if traces && d.Invalidated != want {
					t.Errorf("%s: rerun %d dropped %d traces, want %d", bump.name, i+1, d.Invalidated, want)
				}
			}
			return sig(e)
		}
		on, off := run(true), run(false)
		compareSigs(t, on, off)
		if on.x0 != 15 {
			t.Errorf("%s: x0 = %d, want 15", bump.name, on.x0)
		}
	}
}

// TestTraceGuardRunsBeforeBudget makes the chain's traces stale and then
// reaches their keys only in one-instruction Run slices, too short for any
// trace to run. The guard must still retire each stale trace on arrival,
// so the rebuilt entry block stitches a fresh live trace when it turns hot
// instead of finding its key taken, and the run stays bit-identical to the
// untraced pipeline.
func TestTraceGuardRunsBeforeBudget(t *testing.T) {
	run := func(traces bool) traceSig {
		e := newEnv(t)
		e.c.SetTraces(traces)
		e.c.SetTraceHotThreshold(2)
		e.load(t, chainProgram())
		e.run(t, 1000)
		e.rerun(t, 1000)
		e.rerun(t, 1000) // stitch pass
		e.c.InvalidateCode(codeVA)
		for i := 0; i < 3; i++ { // re-decode, hot, stitch
			runSliced(t, e, uint64(codeVA), 1, 100, func() {})
		}
		if traces {
			live := false
			for _, ti := range e.c.TraceSnapshot() {
				live = live || ti.EntryPC == uint64(codeVA) && ti.EpochOK
			}
			if !live {
				t.Errorf("no live entry trace after the sliced passes: %+v", e.c.TraceSnapshot())
			}
		}
		return sig(e)
	}
	on, off := run(true), run(false)
	compareSigs(t, on, off)
	if on.x0 != 15 {
		t.Errorf("x0 = %d, want 15", on.x0)
	}
}

// TestTraceSnapshotIndependentOfAudit stitches the chain and SMC programs
// with the audit oracle attached and detached. Proofs are composed on the
// first audited entry, never at stitch time, so the oracle must not change
// which traces exist.
func TestTraceSnapshotIndependentOfAudit(t *testing.T) {
	for _, p := range []struct {
		name string
		prog func() *arm64.Asm
		runs int
	}{{"chain", chainProgram, 5}, {"smc", smcProgram, 9}} {
		snapshot := func(audit bool) []TraceInfo {
			e := newEnv(t)
			e.c.SetProofAudit(audit)
			e.c.SetTraceHotThreshold(2)
			e.load(t, p.prog())
			e.run(t, 1000)
			for i := 1; i < p.runs; i++ {
				e.rerun(t, 1000)
			}
			return e.c.TraceSnapshot()
		}
		on, off := snapshot(true), snapshot(false)
		if len(off) == 0 {
			t.Fatalf("%s: nothing stitched", p.name)
		}
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: trace cache differs with the audit oracle attached\n  on  %+v\n  off %+v", p.name, on, off)
		}
	}
}

// stitchReady boots the chain program with stitching held off and runs it
// twice, so every block is cached and validated; it returns the env and the
// entry block's stitch arguments for driving maybeStitch directly.
func stitchReady(tb testing.TB) (*env, *dblock, blockKey, uint64) {
	tb.Helper()
	e := newEnv(tb)
	e.c.SetTraceHotThreshold(1 << 20)
	e.load(tb, chainProgram())
	e.run(tb, 1000)
	e.rerun(tb, 1000)
	pc := uint64(codeVA)
	key := e.c.Decoded.keyFor(e.c, pc)
	b := e.c.Decoded.blocks[key]
	if b == nil {
		tb.Fatal("entry block not cached")
	}
	return e, b, key, pc
}

// uncacheSuccessor removes the entry block's direct successor from the
// block map, so the next stitch walk fails transiently at its first edge.
func uncacheSuccessor(e *env, b *dblock, pc uint64) {
	last := b.insns[len(b.insns)-1]
	next := pc + uint64(len(b.insns)-1)*arm64.InsnBytes + uint64(last.Imm)
	delete(e.c.Decoded.blocks, e.c.Decoded.keyFor(e.c, next))
}

// maxStitchAllocs bounds a successful stitch: the trace and its member,
// page and step slices.
const maxStitchAllocs = 4

// TestStitchAllocations pins the stitcher's allocation profile: a walk that
// fails transiently allocates nothing, and a successful stitch allocates a
// small fixed set sized by the trace, not by the walk.
func TestStitchAllocations(t *testing.T) {
	e, b, key, pc := stitchReady(t)
	ok := testing.AllocsPerRun(100, func() {
		e.c.dropAllTraces()
		e.c.maybeStitch(b, key, pc)
	})
	if e.c.TraceCacheLen() != 1 {
		t.Fatalf("%d traces live, want the entry trace", e.c.TraceCacheLen())
	}
	if ok > maxStitchAllocs {
		t.Errorf("successful stitch allocates %.0f times, want <= %d", ok, maxStitchAllocs)
	}
	tr := e.c.tcache.traces[key]
	if len(tr.steps) != tr.insns || cap(tr.steps) != tr.insns {
		t.Errorf("steps len/cap %d/%d, want exactly %d", len(tr.steps), cap(tr.steps), tr.insns)
	}

	e.c.dropAllTraces()
	uncacheSuccessor(e, b, pc)
	failed := e.c.tcache.stitchFailed
	transient := testing.AllocsPerRun(100, func() { e.c.maybeStitch(b, key, pc) })
	if e.c.tcache.stitchFailed == failed || e.c.TraceCacheLen() != 0 {
		t.Fatal("walk did not fail transiently")
	}
	if transient != 0 {
		t.Errorf("transient stitch failure allocates %.0f times, want 0", transient)
	}
}
