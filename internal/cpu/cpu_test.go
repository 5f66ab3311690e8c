package cpu

import (
	"math/bits"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

const (
	codeVA   = mem.VA(0x10000)
	dataVA   = mem.VA(0x40000)
	userVA   = mem.VA(0x80000)
	stackTop = uint64(0x60000)
)

type env struct {
	c  *VCPU
	pm *mem.PhysMem
	s1 *mem.Stage1
}

// newEnv builds a vCPU at EL1 with a stage-1 address space containing:
// executable kernel code at codeVA, kernel RW data at dataVA, a user
// (AP[1]=1) RW page at userVA, and a stack.
func newEnv(t testing.TB) *env {
	t.Helper()
	pm := mem.NewPhysMem(64 << 20)
	s1, err := mem.NewStage1(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapPage := func(va mem.VA, attrs uint64) mem.PA {
		t.Helper()
		pa, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Map(va, pa, attrs|mem.AttrNG); err != nil {
			t.Fatal(err)
		}
		return pa
	}
	mapPage(codeVA, 0)                                      // kernel X
	mapPage(dataVA, mem.AttrPXN|mem.AttrUXN)                // kernel RW, no exec
	mapPage(userVA, mem.AttrAPUser|mem.AttrPXN|mem.AttrUXN) // user RW
	mapPage(mem.VA(stackTop-mem.PageSize), mem.AttrPXN|mem.AttrUXN)

	c := New(arm64.ProfileCortexA55(), pm)
	c.SetSys(arm64.SCTLREL1, SCTLRM)
	c.SetSys(arm64.TTBR0EL1, MakeTTBR(uint64(s1.Root()), s1.ASID()))
	c.PC = uint64(codeVA)
	c.SetSP(stackTop)
	return &env{c: c, pm: pm, s1: s1}
}

func (e *env) load(t testing.TB, a *arm64.Asm) {
	t.Helper()
	b, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.s1.Walk(codeVA)
	if err != nil || !res.Found {
		t.Fatalf("code page missing: %v", err)
	}
	if err := e.pm.Write(res.PA, b); err != nil {
		t.Fatal(err)
	}
}

func (e *env) run(t testing.TB, max int64) Exit {
	t.Helper()
	exit, err := e.c.Run(max)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return exit
}

func TestArithmeticAndBranching(t *testing.T) {
	e := newEnv(t)
	// Sum 1..10 in x0 via a loop, then HVC to stop.
	a := arm64.NewAsm()
	a.MovImm(0, 0)  // acc
	a.MovImm(1, 10) // counter
	a.Label("loop")
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.Emit(arm64.SUBSImm(1, 1, 1))
	a.BCond(arm64.CondNE, "loop")
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 1000)
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("exit class %v", exit.Syndrome.Class)
	}
	if e.c.R(0) != 55 {
		t.Errorf("sum = %d, want 55", e.c.R(0))
	}
}

func TestMulDivShifts(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, 7)
	a.MovImm(2, 6)
	a.Emit(arm64.MUL(0, 1, 2)) // 42
	a.MovImm(3, 2)
	a.Emit(arm64.UDIV(4, 0, 3)) // 21
	a.Emit(arm64.LSLV(5, 4, 3)) // 84
	a.Emit(arm64.LSRV(6, 5, 3)) // 21
	a.MovImm(9, 0)
	a.Emit(arm64.UDIV(7, 0, 9)) // div by zero -> 0
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	for reg, want := range map[uint8]uint64{0: 42, 4: 21, 5: 84, 6: 21, 7: 0} {
		if got := e.c.R(reg); got != want {
			t.Errorf("x%d = %d, want %d", reg, got, want)
		}
	}
}

// ubfmRef is 64-bit UBFM from the ARM ARM pseudocode: DecodeBitMasks gives
// wmask = ROR(Ones(imms+1), immr) and tmask = Ones(d+1) with
// d = (imms-immr) mod 64, and the result is ROR(x, immr) AND wmask AND tmask.
func ubfmRef(x uint64, immr, imms uint) uint64 {
	ones := func(n uint) uint64 { return 1<<n - 1 } // all ones when n is 64
	wmask := bits.RotateLeft64(ones(imms+1), -int(immr))
	tmask := ones((imms-immr)%64 + 1)
	return bits.RotateLeft64(x, -int(immr)) & wmask & tmask
}

// TestUBFMAllImmediates fetches, decodes and dispatches UBFM through Step
// for all 4,096 (immr, imms) pairs on four operands, and compares each
// result with ubfmRef: the LSR, LSL, UBFX and UBFIZ forms alike.
func TestUBFMAllImmediates(t *testing.T) {
	e := newEnv(t)
	code := mustPA(t, e.s1, codeVA)
	wrong := 0
	for _, x := range []uint64{0xF0F0123456789ABC, 7, ^uint64(0), 1 << 63} {
		for immr := uint8(0); immr < 64; immr++ {
			for imms := uint8(0); imms < 64; imms++ {
				if err := e.pm.WriteUint(code, 4, uint64(arm64.UBFM(0, 1, immr, imms))); err != nil {
					t.Fatal(err)
				}
				e.c.PC = uint64(codeVA)
				e.c.SetR(1, x)
				if _, err := e.c.Step(); err != nil {
					t.Fatal(err)
				}
				if got, want := e.c.R(0), ubfmRef(x, uint(immr), uint(imms)); got != want {
					if wrong++; wrong <= 5 {
						t.Errorf("UBFM x0, x1=%#x, #%d, #%d = %#x, want %#x", x, immr, imms, got, want)
					}
				}
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d results wrong", wrong, 4*64*64)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA))
	a.MovImm(2, 0xCAFEBABE)
	a.Emit(arm64.STRImm(2, 1, 8, 3))
	a.Emit(arm64.LDRImm(3, 1, 8, 3))
	a.Emit(arm64.STRImm(2, 1, 16, 0)) // byte store
	a.Emit(arm64.LDRImm(4, 1, 16, 0))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	if e.c.R(3) != 0xCAFEBABE {
		t.Errorf("x3 = %#x", e.c.R(3))
	}
	if e.c.R(4) != 0xBE {
		t.Errorf("x4 = %#x, want byte 0xBE", e.c.R(4))
	}
}

func TestBLAndRET(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(0, 1)
	a.BL("fn")
	a.Emit(arm64.HVC(0))
	a.Label("fn")
	a.Emit(arm64.ADDImm(0, 0, 41, false))
	a.Emit(arm64.RET(30))
	e.load(t, a)
	e.run(t, 100)
	if e.c.R(0) != 42 {
		t.Errorf("x0 = %d", e.c.R(0))
	}
}

func TestPANBlocksPrivilegedUserAccess(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(userVA))
	a.Emit(arm64.MSRPan(1))          // enable PAN
	a.Emit(arm64.LDRImm(0, 1, 0, 3)) // must fault
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100) // EmulatedEL1 false: the abort exits to EL1
	s := exit.Syndrome
	if s.Class != ECDataAbortSame || s.Kind != mem.FaultPermission {
		t.Fatalf("expected same-EL permission abort, got %+v", s)
	}
	if s.VA != userVA {
		t.Errorf("fault VA = %v", s.VA)
	}
}

func TestPANDisabledAllowsAccessAndLDTRBypass(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(userVA))
	a.MovImm(2, 0x77)
	a.Emit(arm64.MSRPan(0))
	a.Emit(arm64.STRImm(2, 1, 0, 3)) // allowed with PAN clear
	a.Emit(arm64.MSRPan(1))
	a.Emit(arm64.LDTR(3, 1, 0, 3)) // unprivileged load bypasses PAN
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("unexpected exit %+v", exit.Syndrome)
	}
	if e.c.R(3) != 0x77 {
		t.Errorf("LDTR loaded %#x, want 0x77", e.c.R(3))
	}
}

func TestLDTRBlockedOnKernelPage(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA))
	a.Emit(arm64.LDTR(0, 1, 0, 3)) // EL0-permission access to kernel page
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECDataAbortSame || exit.Syndrome.Kind != mem.FaultPermission {
		t.Fatalf("expected permission abort, got %+v", exit.Syndrome)
	}
}

func TestSVCRoutesToEL1AndTGERoutesToEL2(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.SVC(0x42))
	e.load(t, a)

	exit := e.run(t, 10)
	if exit.TargetEL != arm64.EL1 || exit.Syndrome.Class != ECSVC || exit.Syndrome.Imm != 0x42 {
		t.Fatalf("svc exit = %+v", exit)
	}
	if got := e.c.Sys(arm64.ELREL1); got != uint64(codeVA)+4 {
		t.Errorf("ELR_EL1 = %#x", got)
	}

	// With TGE set (VHE host process), the same SVC goes to EL2.
	e2 := newEnv(t)
	e2.c.SetEL(arm64.EL0)
	e2.c.SetSys(arm64.HCREL2, HCRTGE|HCRE2H)
	e2.load(t, a)
	exit = e2.run(t, 10)
	if exit.TargetEL != arm64.EL2 {
		t.Fatalf("TGE svc exit target = %v", exit.TargetEL)
	}
}

// TestTrapRoundTripAllocationFree: a Run that ends in an SVC exit to a
// functional kernel, and the kernel's return through ELR/SPSR, allocate
// nothing once the loop's code is cached and stitched — the Exit is the
// vCPU's own, not a fresh one per delivery.
func TestTrapRoundTripAllocationFree(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Label("top")
	a.Emit(arm64.ADDImm(0, 0, 1, false))
	a.Emit(arm64.SVC(0))
	a.B("top")
	e.load(t, a)
	roundTrip := func() {
		exit, err := e.c.Run(100)
		if err != nil || exit.Syndrome.Class != ECSVC {
			t.Fatalf("run: exit %+v, err %v", exit, err)
		}
		e.c.PC, e.c.PState = e.c.Sys(arm64.ELREL1), e.c.Sys(arm64.SPSREL1)
	}
	for i := 0; i < 64; i++ { // past block build and stitching
		roundTrip()
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("a trap round trip allocates %v times, want 0", n)
	}
	if e.c.R(0) != 64+101 {
		t.Errorf("x0 = %d after %d round trips", e.c.R(0), 64+101)
	}
}

func TestHVCUndefinedAtEL0(t *testing.T) {
	e := newEnv(t)
	if _, err := e.s1.UpdateLeaf(codeVA, func(d uint64) uint64 {
		return d | mem.AttrAPUser
	}); err != nil {
		t.Fatal(err)
	}
	e.c.SetEL(arm64.EL0)
	a := arm64.NewAsm()
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 10)
	if exit.Syndrome.Class != ECUnknown {
		t.Fatalf("HVC at EL0 should be undefined, got %v", exit.Syndrome.Class)
	}
}

func TestTVMTrapsStage1RegisterWrites(t *testing.T) {
	e := newEnv(t)
	e.c.SetSys(arm64.HCREL2, HCRTVM)
	a := arm64.NewAsm()
	a.MovImm(0, 0x1234)
	a.Emit(arm64.MSR(arm64.SCTLREL1, 0))
	e.load(t, a)
	exit := e.run(t, 10)
	if exit.TargetEL != arm64.EL2 || exit.Syndrome.Class != ECMSRTrap {
		t.Fatalf("exit = %+v", exit)
	}
	if exit.Syndrome.IsRead {
		t.Error("write trap marked as read")
	}
	if r, ok := arm64.LookupSysReg(exit.Syndrome.SysEnc); !ok || r != arm64.SCTLREL1 {
		t.Errorf("trapped register = %v, %v", r, ok)
	}
}

func TestTVMClearAllowsTTBR0Write(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(0, 0xAAAA000)
	a.Emit(arm64.MSR(arm64.TTBR0EL1, 0))
	a.Emit(arm64.MRS(1, arm64.TTBR0EL1))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	// Pre-fill the TLB entry for code so the fetch after the TTBR write
	// still hits (global entries are not used here, so re-set TTBR).
	exit, err := e.c.Step() // movz
	_ = exit
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // movk parts of MovImm may vary; just run on
		if _, err := e.c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// After MSR TTBR0, instruction fetch would fault (new table empty), so
	// just verify the register took the value via direct state.
	if got := e.c.Sys(arm64.TTBR0EL1); got != 0xAAAA000 {
		t.Fatalf("TTBR0_EL1 = %#x (pc=%#x)", got, e.c.PC)
	}
}

func TestTLBIAndATUntrapped(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA))
	a.Emit(arm64.LDRImm(0, 1, 0, 3)) // warm TLB
	a.Emit(arm64.TLBIVMALLE1())
	a.Emit(arm64.ATS1E1R(1))
	a.Emit(arm64.MRS(2, arm64.PAREL1))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
	if e.c.R(2)&1 != 0 {
		t.Error("AT reported failure for mapped address")
	}
	res, _ := e.s1.Walk(dataVA)
	if mem.PA(e.c.R(2)) != res.PA&^mem.PA(mem.PageMask) {
		t.Errorf("PAR = %#x, want %v", e.c.R(2), res.PA)
	}
}

func TestTLBITrappedUnderTTLB(t *testing.T) {
	e := newEnv(t)
	e.c.SetSys(arm64.HCREL2, HCRTTLB)
	a := arm64.NewAsm()
	a.Emit(arm64.TLBIVMALLE1())
	e.load(t, a)
	exit := e.run(t, 10)
	if exit.TargetEL != arm64.EL2 || exit.Syndrome.Class != ECMSRTrap {
		t.Fatalf("exit = %+v", exit)
	}
}

func TestEL0CannotTouchPrivilegedState(t *testing.T) {
	for name, word := range map[string]uint32{
		"msr ttbr0": arm64.MSR(arm64.TTBR0EL1, 0),
		"mrs sctlr": arm64.MRS(0, arm64.SCTLREL1),
		"msr pan":   arm64.MSRPan(1),
		"tlbi":      arm64.TLBIVMALLE1(),
		"eret":      arm64.WordERET,
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			// Make code user-executable for EL0.
			if _, err := e.s1.UpdateLeaf(codeVA, func(d uint64) uint64 {
				return d | mem.AttrAPUser
			}); err != nil {
				t.Fatal(err)
			}
			e.c.SetEL(arm64.EL0)
			a := arm64.NewAsm()
			a.Emit(word)
			e.load(t, a)
			exit := e.run(t, 10)
			if exit.Syndrome.Class != ECUnknown {
				t.Errorf("class = %v, want undefined", exit.Syndrome.Class)
			}
		})
	}
}

func TestEmulatedEL1VectorAndERET(t *testing.T) {
	e := newEnv(t)
	e.c.EmulatedEL1 = true
	// Vector stub at a separate page: the LightZone pattern — the stub
	// for current-EL sync exceptions forwards via ERET straight back.
	vecVA := mem.VA(0x20000)
	pa, err := e.pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.s1.Map(vecVA, pa, mem.AttrNG); err != nil {
		t.Fatal(err)
	}
	stub := arm64.NewAsm()
	stub.Emit(arm64.ADDImm(9, 9, 1, false)) // count the trap
	stub.Emit(arm64.WordERET)
	sb, err := stub.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.pm.Write(pa+VecCurSync, sb); err != nil {
		t.Fatal(err)
	}
	e.c.SetSys(arm64.VBAREL1, uint64(vecVA))

	a := arm64.NewAsm()
	a.Emit(arm64.SVC(1)) // traps to EL1 vector (emulated), returns
	a.Emit(arm64.SVC(2))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
	if e.c.R(9) != 2 {
		t.Errorf("trap count = %d, want 2", e.c.R(9))
	}
}

func TestStage2FaultExitsToEL2(t *testing.T) {
	e := newEnv(t)
	// Enable stage-2 with an empty table: first access faults to EL2.
	s2, err := mem.NewStage2(e.pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	e.c.SetSys(arm64.HCREL2, HCRVM)
	e.c.SetSys(arm64.VTTBREL2, MakeVTTBR(uint64(s2.Root()), s2.VMID()))
	e.c.TLB.InvalidateAll()

	exit := e.run(t, 10) // instruction fetch itself faults at stage 2
	if exit.TargetEL != arm64.EL2 {
		t.Fatalf("target = %v", exit.TargetEL)
	}
	if exit.Syndrome.Stage != 2 || exit.Syndrome.Kind != mem.FaultTranslation {
		t.Fatalf("syndrome = %+v", exit.Syndrome)
	}
}

func TestStage2TranslatesThroughFakeAddresses(t *testing.T) {
	// The LightZone randomization layer: stage-1 maps VA->fake IPA,
	// stage-2 maps fake IPA->real PA (§5.1.2).
	pm := mem.NewPhysMem(64 << 20)
	s1, err := mem.NewStage1(pm, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mem.NewStage2(pm, 9)
	if err != nil {
		t.Fatal(err)
	}
	codePA, _ := pm.AllocFrame()
	dataPA, _ := pm.AllocFrame()
	// Fake IPAs are small sequential values.
	const fakeCode, fakeData = 0x1000, 0x2000
	if err := s1.Map(codeVA, fakeCode, mem.AttrNG); err != nil {
		t.Fatal(err)
	}
	if err := s1.Map(dataVA, fakeData, mem.AttrNG|mem.AttrPXN|mem.AttrUXN); err != nil {
		t.Fatal(err)
	}
	if err := s2.Map(fakeCode, codePA, mem.S2APRead); err != nil {
		t.Fatal(err)
	}
	if err := s2.Map(fakeData, dataPA, mem.S2APRead|mem.S2APWrite); err != nil {
		t.Fatal(err)
	}
	// Stage-1 tables must themselves be reachable through stage-2
	// (identity-mapped here), because guest table walks are IPA walks.
	for ipa := mem.IPA(0); ipa < mem.IPA(pm.AllocatedBytes()+16*mem.PageSize); ipa += mem.PageSize {
		if res, err := s2.Walk(ipa); err == nil && res.Found {
			continue // keep the fake mappings installed above
		}
		_ = s2.Map(ipa, mem.PA(ipa), mem.S2APRead|mem.S2APWrite)
	}

	c := New(arm64.ProfileCortexA55(), pm)
	c.SetSys(arm64.SCTLREL1, SCTLRM)
	c.SetSys(arm64.TTBR0EL1, MakeTTBR(uint64(s1.Root()), s1.ASID()))
	c.SetSys(arm64.HCREL2, HCRVM)
	c.SetSys(arm64.VTTBREL2, MakeVTTBR(uint64(s2.Root()), s2.VMID()))
	c.PC = uint64(codeVA)

	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA))
	a.MovImm(2, 0x5A5A)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.HVC(0))
	b, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Write(codePA, b); err != nil {
		t.Fatal(err)
	}
	exit, err := c.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
	// The store must have landed in the REAL frame behind the fake IPA.
	v, err := pm.ReadU64(dataPA)
	if err != nil || v != 0x5A5A {
		t.Errorf("real frame = %#x, %v", v, err)
	}
}

func TestCycleChargingMonotonicAndSysRegCosts(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Emit(arm64.MRS(0, arm64.SCTLREL1))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	before := e.c.Cycles
	e.run(t, 10)
	if e.c.Cycles <= before {
		t.Error("cycles did not advance")
	}
	// An EL1-class MRS must cost at least its profile read cost.
	minimum := e.c.Prof.SysRegReadCost(arm64.SCTLREL1)
	if e.c.Cycles-before < minimum {
		t.Errorf("charged %d, expected at least %d", e.c.Cycles-before, minimum)
	}
}

func TestXZRSemantics(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, 5)
	a.Emit(arm64.ADDReg(31, 1, 1)) // write to XZR discarded
	a.Emit(arm64.ADDReg(2, 31, 1)) // read XZR as 0
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	if e.c.R(2) != 5 {
		t.Errorf("x2 = %d, want 5 (XZR read as 0)", e.c.R(2))
	}
	if e.c.R(31) != 0 {
		t.Errorf("XZR = %d", e.c.R(31))
	}
}

func TestConditionCodes(t *testing.T) {
	// CMP 3,5 then collect which conditions hold.
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, 3)
	a.MovImm(2, 5)
	a.Emit(arm64.CMPReg(1, 2))
	a.MovImm(0, 0)
	a.BCond(arm64.CondLT, "lt")
	a.Emit(arm64.HVC(0))
	a.Label("lt")
	a.MovImm(0, 1)
	a.BCond(arm64.CondNE, "ne")
	a.Emit(arm64.HVC(0))
	a.Label("ne")
	a.MovImm(0, 2)
	a.BCond(arm64.CondGT, "bad") // must not branch
	a.Emit(arm64.HVC(0))
	a.Label("bad")
	a.MovImm(0, 99)
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	if e.c.R(0) != 2 {
		t.Errorf("x0 = %d, want 2 (LT and NE hold, GT does not)", e.c.R(0))
	}
}

func TestIRQDelivery(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Label("spin")
	a.B("spin")
	e.load(t, a)
	e.c.PState &^= arm64.PStateI // unmask
	e.c.PendingIRQ = true
	exit := e.run(t, 10)
	if exit.Syndrome.Class != ECIRQ || exit.TargetEL != arm64.EL1 {
		t.Fatalf("exit %+v", exit)
	}

	// Routed to EL2 under IMO.
	e2 := newEnv(t)
	e2.load(t, a)
	e2.c.SetSys(arm64.HCREL2, HCRIMO)
	e2.c.PState &^= arm64.PStateI
	e2.c.PendingIRQ = true
	exit = e2.run(t, 10)
	if exit.TargetEL != arm64.EL2 {
		t.Fatalf("IMO routing: %+v", exit)
	}
}

func TestRunInsnLimit(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.Label("spin")
	a.B("spin")
	e.load(t, a)
	if _, err := e.c.Run(5); err != ErrInsnLimit {
		t.Errorf("err = %v, want ErrInsnLimit", err)
	}
}

func TestWritableNotExecutable(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA)) // data page has PXN
	a.Emit(arm64.BR(1))
	e.load(t, a)
	exit := e.run(t, 10)
	if exit.Syndrome.Class != ECInsAbortSame || exit.Syndrome.Kind != mem.FaultPermission {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
}

func TestPairAndConditionalExecution(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, uint64(dataVA))
	a.MovImm(2, 0x1111)
	a.MovImm(3, 0x2222)
	a.Emit(arm64.STP(2, 3, 1, 16))
	a.Emit(arm64.LDP(4, 5, 1, 16))
	// Register-offset access.
	a.MovImm(6, 24)
	a.Emit(arm64.STRReg(2, 1, 6, 3))
	a.Emit(arm64.LDRReg(7, 1, 6, 3))
	// Conditional select: 3 < 5 -> LT holds.
	a.MovImm(8, 3)
	a.MovImm(9, 5)
	a.Emit(arm64.CMPReg(8, 9))
	a.Emit(arm64.CSEL(10, 8, 9, arm64.CondLT))  // 3
	a.Emit(arm64.CSEL(11, 8, 9, arm64.CondGT))  // 5
	a.Emit(arm64.CSINC(12, 8, 9, arm64.CondGT)) // 5+1
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
	for reg, want := range map[uint8]uint64{4: 0x1111, 5: 0x2222, 7: 0x1111, 10: 3, 11: 5, 12: 6} {
		if got := e.c.R(reg); got != want {
			t.Errorf("x%d = %#x, want %#x", reg, got, want)
		}
	}
}

func TestPairFaultDelivery(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, 0x5000_0000) // unmapped
	a.Emit(arm64.STP(2, 3, 1, 0))
	e.load(t, a)
	exit := e.run(t, 10)
	if exit.Syndrome.Class != ECDataAbortSame || exit.Syndrome.Kind != mem.FaultTranslation {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
}

func TestImmediateShifts(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, 0xFF00)
	a.Emit(arm64.LSRImm(2, 1, 8)) // 0xFF
	a.Emit(arm64.LSLImm(3, 1, 4)) // 0xFF000
	a.Emit(arm64.LSLImm(4, 1, 0)) // unchanged
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	for reg, want := range map[uint8]uint64{2: 0xFF, 3: 0xFF000, 4: 0xFF00} {
		if got := e.c.R(reg); got != want {
			t.Errorf("x%d = %#x, want %#x", reg, got, want)
		}
	}
}

func TestLogicalAndUnscaledOps(t *testing.T) {
	e := newEnv(t)
	a := arm64.NewAsm()
	a.MovImm(1, 0b1100)
	a.MovImm(2, 0b1010)
	a.Emit(arm64.ANDReg(3, 1, 2)) // 0b1000
	a.Emit(arm64.EORReg(4, 1, 2)) // 0b0110
	a.Emit(arm64.MOVN(5, 0, 0))   // ^0
	// Unscaled negative-offset store/load.
	a.MovImm(6, uint64(dataVA)+64)
	a.Emit(arm64.STUR(1, 6, -8, 3))
	a.Emit(arm64.LDUR(7, 6, -8, 3))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	e.run(t, 100)
	for reg, want := range map[uint8]uint64{3: 0b1000, 4: 0b0110, 5: ^uint64(0), 7: 0b1100} {
		if got := e.c.R(reg); got != want {
			t.Errorf("x%d = %#x, want %#x", reg, got, want)
		}
	}
}

func TestSPSelToggleAtEL1(t *testing.T) {
	e := newEnv(t)
	e.c.SetSys(arm64.SPEL0, 0x7000)
	e.c.SetSys(arm64.SPEL1, 0x9000)
	a := arm64.NewAsm()
	// msr spsel, #0: subsequent SP-relative ops use SP_EL0.
	a.Emit(arm64.MSRPStateImm(arm64.PStateFieldSPSel1, arm64.PStateFieldSPSel2, 0))
	a.MovImm(2, 0xAA)
	a.Emit(arm64.STRImm(2, 31, 0, 3)) // [sp] = SP_EL0 now
	a.Emit(arm64.MSRPStateImm(arm64.PStateFieldSPSel1, arm64.PStateFieldSPSel2, 1))
	a.Emit(arm64.HVC(0))
	e.load(t, a)
	// Map the SP_EL0 page.
	pa, _ := e.pm.AllocFrame()
	if err := e.s1.Map(0x7000, pa, mem.AttrNG|mem.AttrPXN|mem.AttrUXN); err != nil {
		t.Fatal(err)
	}
	exit := e.run(t, 100)
	if exit.Syndrome.Class != ECHVC {
		t.Fatalf("exit %+v", exit.Syndrome)
	}
	v, err := e.pm.ReadU64(pa)
	if err != nil || v != 0xAA {
		t.Errorf("store via SP_EL0 = %#x, %v", v, err)
	}
}
