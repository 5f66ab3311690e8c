package cpu

import (
	"encoding/binary"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// sumProgram emits the arithmetic loop used by the cache tests: sum 1..n
// into x0, then HVC to stop.
func sumProgram(n uint64) *arm64.Asm {
	a := arm64.NewAsm()
	a.MovImm(0, 0)
	a.MovImm(1, n)
	a.Label("loop")
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(arm64.SUBSImm(1, 1, 1))
	a.BCond(arm64.CondNE, "loop")
	a.Emit(arm64.HVC(0))
	return a
}

// rerun restarts the loaded program from its entry (the HVC exit leaves
// the vCPU at EL2).
func (e *env) rerun(t testing.TB, max int64) {
	t.Helper()
	e.c.SetEL(arm64.EL1)
	e.c.PC = uint64(codeVA)
	e.run(t, max)
}

// TestDecodeCachePopulatesAndHits checks that a hot loop is served from
// cached blocks after the first iteration and that the result is unchanged.
func TestDecodeCachePopulatesAndHits(t *testing.T) {
	e := newEnv(t)
	e.load(t, sumProgram(50))
	e.run(t, 1000)
	if e.c.R(0) != 50*51/2 {
		t.Errorf("sum = %d, want %d", e.c.R(0), 50*51/2)
	}
	if e.c.DecodeCacheLen() == 0 {
		t.Error("no blocks cached after a hot loop")
	}
	if e.c.Stats.CodeHits == 0 {
		t.Error("no decode-cache hits after a hot loop")
	}
	if e.c.Stats.CodeMisses == 0 {
		t.Error("first-touch decodes should count as misses")
	}
}

// TestDecodeCacheCycleIdentity runs the same program with the cache on and
// off and requires bit-identical emulated cycles and instruction counts —
// the cache may only remove host work, never emulated work.
func TestDecodeCacheCycleIdentity(t *testing.T) {
	run := func(enabled bool) (int64, int64, uint64) {
		e := newEnv(t)
		e.c.SetDecodeCache(enabled)
		e.load(t, sumProgram(100))
		e.run(t, 10000)
		return e.c.Cycles, e.c.Insns, e.c.R(0)
	}
	onCycles, onInsns, onSum := run(true)
	offCycles, offInsns, offSum := run(false)
	if onCycles != offCycles {
		t.Errorf("cycles differ: cache on %d, off %d", onCycles, offCycles)
	}
	if onInsns != offInsns {
		t.Errorf("insns differ: cache on %d, off %d", onInsns, offInsns)
	}
	if onSum != offSum {
		t.Errorf("results differ: cache on %d, off %d", onSum, offSum)
	}
}

// TestSelfModifyingCodeReDecode overwrites an already-executed (and cached)
// instruction through an emulated store and checks the next execution sees
// the new bytes — the JIT-rewrite flow must never run stale decoded code.
func TestSelfModifyingCodeReDecode(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.B("main")
	a.Label("patch")
	a.Emit(arm64.MOVZ(0, 1, 0)) // x0 = 1; rewritten to x0 = 2 below
	a.Emit(arm64.RET(30))
	a.Label("main")
	a.BL("patch") // first run: caches the patch block, x0 = 1
	a.Emit(arm64.ADDReg(9, 0, 31))
	a.ADR(1, "patch")
	a.MovImm(2, uint64(arm64.MOVZ(0, 2, 0)))
	a.Emit(arm64.STRImm(2, 1, 0, 2)) // overwrite the MOVZ word
	a.BL("patch")                    // second run must produce x0 = 2
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 1000)
	if e.c.R(9) != 1 {
		t.Errorf("first execution: x0 = %d, want 1", e.c.R(9))
	}
	if e.c.R(0) != 2 {
		t.Errorf("after rewrite: x0 = %d, want 2 (stale decoded code executed)", e.c.R(0))
	}
	if e.c.Stats.CodeInvalidations == 0 {
		t.Error("store to a code page did not bump the page epoch")
	}
}

// TestInvalidateCodeDropsBlocks checks the host-side invalidation hook:
// cached blocks for a page must be discarded (counted stale) after
// InvalidateCode, then rebuilt.
func TestInvalidateCodeDropsBlocks(t *testing.T) {
	e := newEnv(t)
	e.load(t, sumProgram(10))
	e.run(t, 1000)
	if e.c.DecodeCacheLen() == 0 {
		t.Fatal("no blocks cached")
	}
	e.c.InvalidateCode(codeVA)
	staleBefore := e.c.Stats.CodeStale
	e.rerun(t, 1000)
	if e.c.Stats.CodeStale == staleBefore {
		t.Error("epoch bump did not force a stale re-decode")
	}
	if e.c.R(0) != 55 {
		t.Errorf("re-run sum = %d, want 55", e.c.R(0))
	}
}

// TestTLBInvalidationBumpsCodeEpochs checks that every TLB invalidation
// entry point (the chokepoints of break-before-make, W^X and unmap flows)
// advances the code epochs, so decoded blocks can never outlive a mapping
// change.
func TestTLBInvalidationBumpsCodeEpochs(t *testing.T) {
	e := newEnv(t)
	snap := func() uint64 {
		return e.c.Stats.CodeInvalidations
	}
	base := snap()
	e.c.TLB.InvalidateVA(0, codeVA)
	if snap() == base {
		t.Error("InvalidateVA did not bump code epochs")
	}
	e.load(t, sumProgram(5))
	e.run(t, 1000)
	if e.c.DecodeCacheLen() == 0 {
		t.Fatal("no blocks cached")
	}
	for name, inval := range map[string]func(){
		"InvalidateAll":  func() { e.c.TLB.InvalidateAll() },
		"InvalidateVMID": func() { e.c.TLB.InvalidateVMID(0) },
		"InvalidateASID": func() { e.c.TLB.InvalidateASID(0, 1) },
	} {
		stale := e.c.Stats.CodeStale
		inval()
		e.rerun(t, 1000)
		if e.c.Stats.CodeStale == stale {
			t.Errorf("%s: cached blocks survived the invalidation", name)
		}
	}
}

// TestDecodeCacheDisabled checks that SetDecodeCache(false) reverts to the
// pure fetch/decode pipeline (no blocks, no hits).
func TestDecodeCacheDisabled(t *testing.T) {
	e := newEnv(t)
	e.c.SetDecodeCache(false)
	e.load(t, sumProgram(10))
	e.run(t, 1000)
	if e.c.R(0) != 55 {
		t.Errorf("sum = %d, want 55", e.c.R(0))
	}
	if e.c.DecodeCacheLen() != 0 || e.c.Stats.CodeHits != 0 {
		t.Errorf("disabled cache recorded state: %d blocks, %d hits",
			e.c.DecodeCacheLen(), e.c.Stats.CodeHits)
	}
}

// loadWords writes an instruction stream from codeVA on, mapping each code
// page past the first (newEnv maps only that one).
func loadWords(t testing.TB, e *env, words []uint32) {
	t.Helper()
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	for off := 0; off < len(buf); off += mem.PageSize {
		va := codeVA + mem.VA(off)
		if off > 0 {
			pa, err := e.pm.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.s1.Map(va, pa, mem.AttrNG); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.s1.Walk(va)
		if err != nil || !res.Found {
			t.Fatalf("code page %v missing: %v", va, err)
		}
		if err := e.pm.Write(res.PA, buf[off:min(off+mem.PageSize, len(buf))]); err != nil {
			t.Fatal(err)
		}
	}
}

// bPlus4 is `B #4`: a terminator, so it always ends its decoded block.
const bPlus4 = 0x14000001

// loadBlockSweep maps `pages` consecutive code pages and fills them with
// single-instruction blocks: every slot is `B #4`, and the very last slot is
// HVC so the sweep exits. pages*1024 distinct blocks execute per sweep.
func loadBlockSweep(t testing.TB, e *env, pages int) {
	t.Helper()
	words := make([]uint32, pages*1024)
	for i := range words {
		words[i] = bPlus4
	}
	words[len(words)-1] = arm64.HVC(0)
	loadWords(t, e, words)
}

// runSliced runs from pc in Run slices of the given size until the program
// exits, calling after() after every slice, and fails the test if budget
// instructions pass without an exit.
func runSliced(t *testing.T, e *env, pc uint64, slice, budget int64, after func()) {
	t.Helper()
	e.c.SetEL(arm64.EL1)
	e.c.PC = pc
	for done := int64(0); done <= budget; done += slice {
		_, err := e.c.Run(slice)
		after()
		if err == nil {
			return // the exit
		}
		if err != ErrInsnLimit {
			t.Fatal(err)
		}
	}
	t.Fatalf("no exit within %d instructions", budget)
}

// TestBlockCacheClearsAtCap sweeps more distinct blocks than
// maxCachedBlocks, one instruction at a time, with traces stitched over
// the sweep's first blocks: the cache never holds more than the cap, the
// insert that would exceed it clears the whole cache and every trace with
// it (once, in one sweep), and emulated cycles and instructions stay
// identical to the cache-off pipeline across the clear.
func TestBlockCacheClearsAtCap(t *testing.T) {
	const pages = maxCachedBlocks/1024 + 1
	const total = pages * 1024
	run := func(enabled bool) (int64, int64) {
		e := newEnv(t)
		e.c.SetDecodeCache(enabled)
		e.c.SetTraceHotThreshold(1)
		loadBlockSweep(t, e, pages)
		// Two passes over the first blocks: the first decodes them, the
		// second enters them and stitches traces across them.
		for i := 0; i < 2; i++ {
			e.c.SetEL(arm64.EL1)
			e.c.PC = uint64(codeVA)
			if _, err := e.c.Run(64); err != ErrInsnLimit {
				t.Fatalf("prefix pass %d: %v", i, err)
			}
		}
		if enabled && e.c.TraceCacheLen() == 0 {
			t.Fatal("no trace stitched before the sweep")
		}
		clears, prev := 0, e.c.DecodeCacheLen()
		runSliced(t, e, uint64(codeVA), 1, total, func() {
			n := e.c.DecodeCacheLen()
			if n > maxCachedBlocks {
				t.Fatalf("%d cached blocks, cap %d", n, maxCachedBlocks)
			}
			if n < prev {
				clears++
				if prev != maxCachedBlocks || n != 0 || e.c.TraceCacheLen() != 0 {
					t.Errorf("%d blocks fell to %d with %d traces live, want a clear from the cap to 0 and 0",
						prev, n, e.c.TraceCacheLen())
				}
			}
			prev = n
		})
		if enabled && clears != 1 {
			t.Errorf("sweep cleared the cache %d times, want 1", clears)
		}
		return e.c.Cycles, e.c.Insns
	}
	onC, onI := run(true)
	offC, offI := run(false)
	if onC != offC || onI != offI {
		t.Errorf("overflow sweep identity: cache on %d/%d, off %d/%d", onC, onI, offC, offI)
	}
}

// BenchmarkStepHot measures the host-side cost of the hot Step path with
// the decoded-block cache on and off.
func BenchmarkStepHot(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"cache-on", true}, {"cache-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := newEnv(b)
			e.load(b, sumProgram(100))
			e.c.SetDecodeCache(mode.enabled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.c.SetEL(arm64.EL1)
				e.c.PC = uint64(codeVA)
				if _, err := e.c.Run(10_000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.c.Insns)/float64(b.N), "insns/op")
		})
	}
}

// rawBlocks maps each cached block's starting page offset to its raw words.
func rawBlocks(c *VCPU) map[uint16][]uint32 {
	out := make(map[uint16][]uint32)
	for _, b := range c.DecodedBlocks() {
		out[b.Off] = b.Raw
	}
	return out
}

// TestBlockBuilderUnknownWordEndsBlock: an undecodable word mid-stream ends
// the decoded block at the word itself — the builder must not skip it and
// keep appending, or a replay would sail past the trap point.
func TestBlockBuilderUnknownWordEndsBlock(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(uint32(0xffffffff)) // undecodable: traps, terminates the block
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECUnknown {
		t.Fatalf("exit class %v, want ECUnknown from the undecodable word", exit.Syndrome.Class)
	}
	blocks := rawBlocks(e.c)
	blk, ok := blocks[0]
	if !ok {
		t.Fatal("no block cached at the entry offset")
	}
	if len(blk) != 3 || blk[2] != 0xffffffff {
		t.Fatalf("entry block raw = %#x, want 3 words ending with the undecodable word", blk)
	}
	// Replaying the cached block must trap identically: same instruction
	// count to the trap, same syndrome, same faulting PC.
	insns := e.c.Insns
	trapPC := exit.Syndrome.PC
	e.c.SetEL(arm64.EL1)
	e.c.PC = uint64(codeVA)
	exit2 := e.run(t, 100)
	if got, want := e.c.Insns-insns, insns; got != want {
		t.Errorf("replay retired %d insns, first run %d", got, want)
	}
	if exit2.Syndrome.Class != ECUnknown || exit2.Syndrome.PC != trapPC {
		t.Errorf("replay trapped %v at %#x, first run %v at %#x",
			exit2.Syndrome.Class, exit2.Syndrome.PC, exit.Syndrome.Class, trapPC)
	}
}

// TestBlockBuilderPoolAfterTerminator: a literal pool abutting a block's
// terminating branch is never decoded into any block — the builder stops at
// the terminator and the next block starts at the branch target, not at the
// pool word.
func TestBlockBuilderPoolAfterTerminator(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(0, 7)
	a.B("over")                 // terminator; pool abuts it
	a.Emit(arm64.TLBIVMALLE1()) // pool word parked as data
	a.Emit(uint32(0xffffffff))  // more pool
	a.Label("over")
	a.Emit(arm64.ADDReg(0, 0, 0))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	if e.c.R(0) != 14 {
		t.Fatalf("x0 = %d, want 14", e.c.R(0))
	}
	pool := []uint32{arm64.TLBIVMALLE1(), 0xffffffff}
	for off, raw := range rawBlocks(e.c) {
		for _, w := range raw {
			for _, p := range pool {
				if w == p {
					t.Errorf("block at +%#x decoded pool word %#x", off, w)
				}
			}
		}
	}
}

// TestBlockBuilderCondFallthroughChain: each conditional branch terminates
// its block and the fall-through starts a fresh one, so a chain of
// conditionals decodes into a chain of blocks whose boundaries sit exactly
// at the instruction after each branch.
func TestBlockBuilderCondFallthroughChain(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(0, 0)               // +0
	a.MovImm(1, 1)               // +4
	a.BCond(arm64.CondEQ, "out") // +8: Z clear -> falls through
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.BCond(arm64.CondEQ, "out") // +16: falls through again
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Label("out")
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	if e.c.R(0) != 2 {
		t.Fatalf("x0 = %d, want 2 (both fallthroughs taken)", e.c.R(0))
	}
	blocks := rawBlocks(e.c)
	// Boundaries: entry block [., ., b.eq], then [add, b.eq] at +12, then
	// [add, hvc] at +20.
	for _, off := range []uint16{0, 12, 20} {
		if _, ok := blocks[off]; !ok {
			t.Errorf("no block starts at +%#x; fallthrough must open a new block", off)
		}
	}
	if raw := blocks[0]; len(raw) != 3 {
		t.Errorf("entry block has %d words, want 3 (ends at the first b.eq)", len(raw))
	}
}

// TestBlockCacheContextMemoAliasing checks keyFor for two ASIDs that share a
// context memo slot (they differ by 256): their keys stay distinct, and
// after a reset re-interns them in the opposite order, each key still finds
// the block cached under its own ASID, not the one whose old id it reuses.
func TestBlockCacheContextMemoAliasing(t *testing.T) {
	e := newEnv(t)
	c, d := e.c, e.c.Decoded
	const pc = uint64(codeVA)
	root := uint64(e.s1.Root())
	a, b := uint16(7), uint16(7+blockCtxMemoSlots)
	keyUnder := func(asid uint16) blockKey {
		c.SetSys(arm64.TTBR0EL1, MakeTTBR(root, asid))
		return d.keyFor(c, pc)
	}
	ka, kb := keyUnder(a), keyUnder(b)
	if ka == kb || keyUnder(a) != ka || keyUnder(b) != kb {
		t.Fatalf("ASIDs %d and %d alias: keys %#x, %#x", a, b, ka, kb)
	}

	d.reset()
	kb, ka = keyUnder(b), keyUnder(a) // b now takes a's old id
	if ka == kb {
		t.Fatalf("ASIDs %d and %d alias after reset: key %#x", a, b, ka)
	}
	for _, k := range []struct {
		key  blockKey
		asid uint16
	}{{ka, a}, {kb, b}} {
		if got := d.ctxList[k.key>>blockCtxShift].asid; got != k.asid {
			t.Errorf("key %#x decodes to ASID %d, want %d", k.key, got, k.asid)
		}
	}
	page := pc >> mem.PageShift
	blk := &dblock{page: page, snap: d.epochs.Snapshot(page), checkedGen: d.epochs.Gen()}
	d.blocks = map[blockKey]*dblock{ka: blk}
	c.SetSys(arm64.TTBR0EL1, MakeTTBR(root, a))
	if got := d.enter(c, pc); got != blk {
		t.Errorf("ASID %d: enter = %p, want its cached block %p", a, got, blk)
	}
	c.SetSys(arm64.TTBR0EL1, MakeTTBR(root, b))
	if got := d.enter(c, pc); got != nil {
		t.Errorf("ASID %d entered ASID %d's block", b, a)
	}
}
