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
