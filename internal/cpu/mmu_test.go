package cpu

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

func TestTranslateNonCanonicalFaults(t *testing.T) {
	e := newEnv(t)
	_, ab := e.c.Translate(mem.VA(0x0010_0000_0000_0000), mem.AccessRead, false)
	if ab == nil || ab.Syndrome.Kind != mem.FaultAddressSize {
		t.Fatalf("abort = %+v", ab)
	}
}

func TestTranslateMMUOffIsFlat(t *testing.T) {
	e := newEnv(t)
	e.c.SetSys(arm64.SCTLREL1, 0)
	pa, ab := e.c.Translate(0x12345, mem.AccessRead, false)
	if ab != nil || pa != 0x12345 {
		t.Fatalf("pa=%v ab=%v", pa, ab)
	}
}

// A TLB hit must still honour the *current* PAN state: the permission
// check is replayed on cached entries (this is what makes PAN-based domain
// switching sound without TLB maintenance).
func TestTLBHitReplaysPANCheck(t *testing.T) {
	e := newEnv(t)
	// Warm the TLB with PAN clear.
	e.c.SetPAN(false)
	if _, ab := e.c.Translate(userVA, mem.AccessRead, false); ab != nil {
		t.Fatalf("warm: %v", ab)
	}
	if e.c.TLB.Misses == 0 {
		t.Fatal("expected a compulsory miss")
	}
	// Enable PAN: the cached entry must now deny the access.
	e.c.SetPAN(true)
	_, ab := e.c.Translate(userVA, mem.AccessRead, false)
	if ab == nil || ab.Syndrome.Kind != mem.FaultPermission {
		t.Fatalf("PAN not enforced on TLB hit: %+v", ab)
	}
	// And LDTR (unprivileged override) must still pass.
	if _, ab := e.c.Translate(userVA, mem.AccessRead, true); ab != nil {
		t.Fatalf("unpriv override blocked: %v", ab)
	}
}

func TestTranslateChargesWalkOnceThenHits(t *testing.T) {
	e := newEnv(t)
	before := e.c.Cycles
	if _, ab := e.c.Translate(dataVA, mem.AccessRead, false); ab != nil {
		t.Fatal(ab)
	}
	missCost := e.c.Cycles - before
	if missCost < 4*e.c.Prof.TLBWalkPerLevel {
		t.Errorf("miss cost %d below 4-level walk", missCost)
	}
	before = e.c.Cycles
	if _, ab := e.c.Translate(dataVA, mem.AccessRead, false); ab != nil {
		t.Fatal(ab)
	}
	if hit := e.c.Cycles - before; hit != 0 {
		t.Errorf("TLB hit charged %d cycles", hit)
	}
}

func TestSPSelection(t *testing.T) {
	e := newEnv(t)
	e.c.SetEL(arm64.EL1)
	e.c.SetSP(0x9000) // SP_EL1 via SPSel
	e.c.SetEL(arm64.EL0)
	e.c.SetSP(0x7000) // SP_EL0
	if got := e.c.Sys(arm64.SPEL0); got != 0x7000 {
		t.Errorf("SP_EL0 = %#x", got)
	}
	if got := e.c.Sys(arm64.SPEL1); got != 0x9000 {
		t.Errorf("SP_EL1 = %#x", got)
	}
	e.c.SetEL(arm64.EL1)
	if e.c.SP() != 0x9000 {
		t.Errorf("EL1 SP = %#x", e.c.SP())
	}
	// SPSel=0 at EL1 selects SP_EL0.
	e.c.PState &^= arm64.PStateSPSel
	if e.c.SP() != 0x7000 {
		t.Errorf("EL1/SPSel=0 SP = %#x", e.c.SP())
	}
}

func TestERETValidation(t *testing.T) {
	e := newEnv(t)
	e.c.SetEL(arm64.EL0)
	if err := e.c.ERET(); err == nil {
		t.Error("ERET at EL0 accepted")
	}
	e.c.SetEL(arm64.EL1)
	e.c.SetSys(arm64.SPSREL1, arm64.PStateForEL(arm64.EL2))
	if err := e.c.ERET(); err == nil {
		t.Error("ERET to higher EL accepted")
	}
}

func TestExceptionEntryBanksState(t *testing.T) {
	e := newEnv(t)
	e.c.PState |= arm64.PStatePAN
	pcBefore := e.c.PC
	psBefore := e.c.PState
	e.c.TakeException(arm64.EL2, Syndrome{Class: ECHVC, Imm: 7}, pcBefore+4)
	if e.c.Sys(arm64.ELREL2) != pcBefore+4 {
		t.Errorf("ELR_EL2 = %#x", e.c.Sys(arm64.ELREL2))
	}
	if e.c.Sys(arm64.SPSREL2) != psBefore {
		t.Errorf("SPSR_EL2 = %#x, want %#x", e.c.Sys(arm64.SPSREL2), psBefore)
	}
	if e.c.EL() != arm64.EL2 {
		t.Errorf("EL = %v", e.c.EL())
	}
	if e.c.PState&arm64.PStateI == 0 {
		t.Error("interrupts not masked on entry")
	}
	// ERET restores everything, including PAN.
	if err := e.c.ERET(); err != nil {
		t.Fatal(err)
	}
	if e.c.PState != psBefore || e.c.PC != pcBefore+4 {
		t.Errorf("eret restored pc=%#x ps=%#x", e.c.PC, e.c.PState)
	}
}

func TestPackUnpackESRRoundTrip(t *testing.T) {
	e := newEnv(t)
	s := Syndrome{
		Class:  ECDataAbortSame,
		VA:     0x1234000,
		Access: mem.AccessWrite,
		Kind:   mem.FaultPermission,
		Stage:  1,
	}
	e.c.TakeException(arm64.EL1, s, 0x4000)
	got := UnpackESR(e.c.Sys(arm64.ESREL1), e.c.Sys(arm64.FAREL1))
	if got.Class != s.Class || got.Kind != s.Kind || got.Access != s.Access ||
		got.Stage != s.Stage || got.VA != s.VA {
		t.Errorf("round trip = %+v, want %+v", got, s)
	}

	s2 := Syndrome{Class: ECSVC, Imm: 0x1234}
	e.c.TakeException(arm64.EL1, s2, 0x4000)
	got = UnpackESR(e.c.Sys(arm64.ESREL1), e.c.Sys(arm64.FAREL1))
	if got.Class != ECSVC || got.Imm != 0x1234 {
		t.Errorf("svc round trip = %+v", got)
	}

	s3 := Syndrome{Class: ECDataAbortLower, VA: 0x8000, Access: mem.AccessRead,
		Kind: mem.FaultTranslation, Stage: 2}
	e.c.TakeException(arm64.EL2, s3, 0x4000)
	got = UnpackESR(e.c.Sys(arm64.ESREL2), e.c.Sys(arm64.FAREL2))
	if got.Stage != 2 || got.Kind != mem.FaultTranslation {
		t.Errorf("stage-2 round trip = %+v", got)
	}
}

func TestMemReadWriteSizes(t *testing.T) {
	e := newEnv(t)
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if ab := e.c.MemWrite(dataVA, size, v, false); ab != nil {
			t.Fatalf("write size %d: %v", size, ab)
		}
		got, ab := e.c.MemRead(dataVA, size, false)
		if ab != nil || got != v {
			t.Errorf("size %d: read %#x want %#x (%v)", size, got, v, ab)
		}
	}
}

// TestMemAccessCrossingUnmappedPageFaults: in newEnv, dataVA's frame is
// physically followed by the PAN-protected userVA frame while the next VA
// page is unmapped. An 8-byte load or store at dataVA+0xFFC crosses into
// that unmapped page, so it must take a stage-1 translation abort at the
// page's first byte, and no byte may move: the register keeps its value,
// and neither the data frame nor the user frame behind it changes.
func TestMemAccessCrossingUnmappedPageFaults(t *testing.T) {
	const secret = 0x5ec2e7
	for _, store := range []bool{false, true} {
		e := newEnv(t)
		dataPA := walkPA(t, e, dataVA)
		userPA := walkPA(t, e, userVA)
		if err := e.pm.WriteUint(userPA, 8, secret); err != nil {
			t.Fatal(err)
		}
		a := arm64.NewAsm()
		a.MovImm(1, uint64(dataVA)+0xFFC)
		a.MovImm(2, 0x1122334455667788)
		a.MovImm(3, 0xdead)
		a.Emit(arm64.MSRPan(1))
		if store {
			a.Emit(arm64.STRImm(2, 1, 0, 3))
		} else {
			a.Emit(arm64.LDRImm(3, 1, 0, 3))
		}
		a.Emit(arm64.HVC(0))
		e.load(t, a)
		exit := e.run(t, 100)
		s := exit.Syndrome
		if s.Class != ECDataAbortSame || s.Kind != mem.FaultTranslation || s.Stage != 1 {
			t.Fatalf("store=%v: expected a stage-1 translation abort, got %+v", store, s)
		}
		if s.VA != dataVA+mem.PageSize {
			t.Errorf("store=%v: fault VA = %v, want %v", store, s.VA, dataVA+mem.PageSize)
		}
		if got := e.c.R(3); got != 0xdead {
			t.Errorf("store=%v: X3 = %#x after the abort, want it unchanged", store, got)
		}
		if v, _ := e.pm.ReadU64(userPA); v != secret {
			t.Errorf("store=%v: user frame holds %#x, want %#x", store, v, secret)
		}
		if v, _ := e.pm.ReadUint(dataPA+0xFF8, 8); v != 0 {
			t.Errorf("store=%v: the faulting store partly wrote the data frame: %#x", store, v)
		}
	}
}

// TestMemAccessCrossingTranslatesSecondPage: when the next VA page is
// mapped to a frame that is physically elsewhere, a crossing access must
// use that frame for its second part, not the physically next one.
func TestMemAccessCrossingTranslatesSecondPage(t *testing.T) {
	e := newEnv(t)
	dataPA := walkPA(t, e, dataVA)
	userPA := walkPA(t, e, userVA)
	nextPA, err := e.pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.s1.Map(dataVA+mem.PageSize, nextPA, mem.AttrPXN|mem.AttrUXN|mem.AttrNG); err != nil {
		t.Fatal(err)
	}
	if nextPA == dataPA+mem.PageSize {
		t.Fatalf("next page landed physically adjacent at %v; the test needs it elsewhere", nextPA)
	}
	for pa, v := range map[mem.PA]uint64{dataPA + 0xFFC: 0xa1a2a3a4, nextPA: 0xb1b2b3b4, userPA: 0xc1c2c3c4} {
		if err := e.pm.WriteUint(pa, 4, v); err != nil {
			t.Fatal(err)
		}
	}
	if v, ab := e.c.MemRead(dataVA+0xFFC, 8, false); ab != nil || v != 0xb1b2b3b4_a1a2a3a4 {
		t.Errorf("crossing load = %#x (%v), want 0xb1b2b3b4a1a2a3a4", v, ab)
	}
	if ab := e.c.MemWrite(dataVA+0xFFE, 4, 0x11223344, false); ab != nil {
		t.Fatal(ab)
	}
	if v, _ := e.pm.ReadUint(dataPA+0xFFC, 4); v != 0x3344a3a4 {
		t.Errorf("first page after crossing store = %#x, want 0x3344a3a4", v)
	}
	if v, _ := e.pm.ReadUint(nextPA, 4); v != 0xb1b21122 {
		t.Errorf("second page after crossing store = %#x, want 0xb1b21122", v)
	}
	if v, _ := e.pm.ReadUint(userPA, 4); v != 0xc1c2c3c4 {
		t.Errorf("physically next frame changed to %#x", v)
	}
}

// walkPA returns the frame that va maps to in e's stage-1 table.
func walkPA(t *testing.T, e *env, va mem.VA) mem.PA {
	t.Helper()
	res, err := e.s1.Walk(va)
	if err != nil || !res.Found {
		t.Fatalf("%v is not mapped: %v", va, err)
	}
	return res.PA
}

func TestWalkCostIncludesStage2Levels(t *testing.T) {
	// With stage-2 enabled, a data TLB miss charges stage-1 plus stage-2
	// walk levels.
	e := newEnv(t)
	s2, err := mem.NewStage2(e.pm, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Identity stage-2 for everything allocated so far plus slack.
	for ipa := mem.IPA(0); ipa < mem.IPA(e.pm.AllocatedBytes()+32*mem.PageSize); ipa += mem.PageSize {
		if err := s2.Map(ipa, mem.PA(ipa), mem.S2APRead|mem.S2APWrite); err != nil {
			t.Fatal(err)
		}
	}
	e.c.SetSys(arm64.HCREL2, HCRVM)
	e.c.SetSys(arm64.VTTBREL2, MakeVTTBR(uint64(s2.Root()), 5))
	e.c.TLB.InvalidateAll()

	before := e.c.Cycles
	if _, ab := e.c.Translate(dataVA, mem.AccessRead, false); ab != nil {
		t.Fatal(ab)
	}
	cost := e.c.Cycles - before
	want := 7 * e.c.Prof.TLBWalkPerLevel // 4 stage-1 + 3 stage-2
	if cost < want {
		t.Errorf("nested miss cost %d, want at least %d", cost, want)
	}
}

// TestStage2ResolveAllocationFree pins the stage-2 walk on the TLB-miss
// path as allocation-free: s2Resolve wraps VTTBR_EL2's root in a
// mem.ViewStage2 on every call, and that view must stay on the stack.
func TestStage2ResolveAllocationFree(t *testing.T) {
	e := newEnv(t)
	s2, err := mem.NewStage2(e.pm, 5)
	if err != nil {
		t.Fatal(err)
	}
	const ipa = mem.IPA(0x20_0000)
	if err := s2.Map(ipa, 0x30_0000, mem.S2APRead|mem.S2APWrite); err != nil {
		t.Fatal(err)
	}
	e.c.SetSys(arm64.HCREL2, HCRVM)
	e.c.SetSys(arm64.VTTBREL2, MakeVTTBR(uint64(s2.Root()), 5))
	if pa, _, ab := e.c.s2Resolve(ipa+8, mem.AccessRead, true); ab != nil || pa != 0x30_0008 {
		t.Fatalf("s2Resolve = %v, %v", pa, ab)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = e.c.s2Resolve(ipa, mem.AccessRead, true)
	})
	if allocs != 0 {
		t.Errorf("mapped stage-2 resolve allocates %v times per call, want 0", allocs)
	}
}
