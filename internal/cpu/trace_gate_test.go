package cpu

// Stitching across a call gate's TTBR0 switch: in TTBR1-half code, MSR
// TTBR0_EL1 is a fall-through stitch edge dispatched generically, so a
// LightZone gate (ADR; LDR; ...; MSR TTBR0_EL1; ISB; ...; RET) runs as one
// trace. Every scenario compares the traced run with the block pipeline
// and with the plain Step loop: the edge may only remove host work.

import (
	"reflect"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// gateCodeVA is a TTBR1-half kernel code page, where LightZone maps its
// call gates.
const gateCodeVA = mem.TTBR1Base + 0x10000

// gateProgram is a gate-shaped sequence around one system-register write
// msr (whose source register the caller sets): four blocks joined by the
// write, a B and a fused MRS, ending at HVC. The load after the write reads
// dataVA through whatever TTBR0 the write installed.
func gateProgram(msr uint32) *arm64.Asm {
	a := arm64.NewAsm()
	a.Emit(arm64.ADDImm(0, 0, 1, false))
	a.Emit(msr)
	a.Emit(arm64.WordISB)
	a.Emit(arm64.LDRImm(9, 5, 0, 3))
	a.Emit(arm64.ADDReg(0, 0, 9))
	a.B("tail")
	a.Label("tail")
	a.Emit(arm64.MRS(19, arm64.TTBR0EL1))
	a.Emit(arm64.ADDImm(0, 0, 2, false))
	a.Emit(arm64.HVC(0))
	return a
}

// gateEnv is newEnv plus a TTBR1 table (ASID 0) mapping gateCodeVA as
// global kernel code, and a second TTBR0 space (ASID 2) whose dataVA page
// holds 7 where the first space's holds 3.
type gateEnv struct {
	*env
	ttbrA, ttbrB uint64
	entry        uint64 // where the program was loaded
}

// newGateEnv loads prog at gateCodeVA, or at codeVA when low is set.
func newGateEnv(t testing.TB, prog *arm64.Asm, low bool) *gateEnv {
	t.Helper()
	e := newEnv(t)
	g := &gateEnv{env: e, ttbrA: e.c.Sys(arm64.TTBR0EL1), entry: uint64(gateCodeVA)}
	k1, err := mem.NewStage1(e.pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1b, err := mem.NewStage1(e.pm, 2)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func() mem.PA {
		pa, err := e.pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
	gatePA, dataB := alloc(), alloc()
	if err := k1.Map(gateCodeVA, gatePA, 0); err != nil {
		t.Fatal(err)
	}
	if err := s1b.Map(dataVA, dataB, mem.AttrPXN|mem.AttrUXN|mem.AttrNG); err != nil {
		t.Fatal(err)
	}
	dataA, err := e.s1.Walk(dataVA)
	if err != nil || !dataA.Found {
		t.Fatalf("data page missing: %v", err)
	}
	if err := e.pm.WriteU64(dataA.PA, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.pm.WriteU64(dataB, 7); err != nil {
		t.Fatal(err)
	}
	e.c.SetSys(arm64.TTBR1EL1, MakeTTBR(uint64(k1.Root()), 0))
	g.ttbrB = MakeTTBR(uint64(s1b.Root()), 2)
	if low {
		e.load(t, prog)
		g.entry = uint64(codeVA)
	} else {
		b, err := prog.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.pm.Write(gatePA, b); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// pass runs the program once from its entry at EL1 with x17 = ttbr0 (the
// value the gate's MSR TTBR0_EL1 installs) and x5 = dataVA.
func (g *gateEnv) pass(t testing.TB, ttbr0 uint64) Exit {
	t.Helper()
	g.c.SetEL(arm64.EL1)
	g.c.PC = g.entry
	g.c.SetR(17, ttbr0)
	g.c.SetR(5, uint64(dataVA))
	return g.run(t, 1000)
}

// pipelineMode is one of the three ways a vCPU can run the same code.
type pipelineMode int

const (
	modeTraced pipelineMode = iota // decode cache and traces on
	modeBlocks                     // decode cache on, traces off
	modeStep                       // decode cache off: the plain Step loop
)

func (m pipelineMode) String() string {
	return [...]string{"traced", "blocks", "step"}[m]
}

func (g *gateEnv) setMode(m pipelineMode) {
	g.c.SetDecodeCache(m != modeStep)
	g.c.SetTraces(m == modeTraced)
	g.c.SetTraceHotThreshold(2)
}

// tlbEntry is one TLB entry as TLB.Visit reports it.
type tlbEntry struct {
	vmid, asid uint16
	global     bool
	va         mem.VA
	e          mem.TLBEntry
}

// gateSig is the emulated state a trace may not move: registers, PC,
// PSTATE, the system-register file, cycles, instructions, TLB counters
// and contents. codeHits/codeMisses are compared only between the two
// cached pipelines; the Step loop decodes every fetch.
type gateSig struct {
	x                  [32]uint64
	pc, pstate         uint64
	sys                [arm64.NumSysRegs]uint64
	cycles, insns      int64
	tlbHits, tlbMisses uint64
	codeInvalidations  uint64
	tlb                []tlbEntry
	codeHits           uint64
	codeMisses         uint64
}

func (g *gateEnv) sig(m pipelineMode) gateSig {
	s := gateSig{
		x: g.c.X, pc: g.c.PC, pstate: g.c.PState, sys: g.c.sys,
		cycles: g.c.Cycles, insns: g.c.Insns,
		tlbHits: g.c.Stats.TLBHits, tlbMisses: g.c.Stats.TLBMisses,
		codeInvalidations: g.c.Stats.CodeInvalidations,
	}
	g.c.TLB.Visit(func(vmid, asid uint16, global bool, va mem.VA, e mem.TLBEntry) bool {
		s.tlb = append(s.tlb, tlbEntry{vmid, asid, global, va, e})
		return true
	})
	if m != modeStep {
		s.codeHits, s.codeMisses = g.c.Stats.CodeHits, g.c.Stats.CodeMisses
	}
	return s
}

// compareModes requires the traced signature to equal the block pipeline's
// and the Step loop's.
func compareModes(t *testing.T, name string, sigs map[pipelineMode]gateSig) {
	t.Helper()
	on := sigs[modeTraced]
	for _, m := range []pipelineMode{modeBlocks, modeStep} {
		want := sigs[m]
		got := on
		if m == modeStep {
			got.codeHits, got.codeMisses = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced run diverged from the %v run:\n  traced %+v\n  %-6v %+v", name, m, got, m, want)
		}
	}
}

// gatePasses alternates the gate's target between the two TTBR0 spaces,
// so every pass's MSR changes TTBR0 and the load after it reads the other
// space's data page.
func (g *gateEnv) gatePasses(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ttbr := g.ttbrB
		if i%2 == 1 {
			ttbr = g.ttbrA
		}
		if exit := g.pass(t, ttbr); exit.Syndrome.Class != ECHVC {
			t.Fatalf("pass %d: exit %+v, want HVC", i, exit.Syndrome)
		}
	}
}

// TestTraceStitchesAcrossTTBR1GateMSR runs a gate-shaped TTBR1-half
// sequence whose MSR TTBR0_EL1 switches between two address spaces on
// every pass. The entry block stitches one trace across the write, the
// blocks after it stitch none of their own, and registers, PC, cycles,
// stats and TLB equal the block pipeline's and the Step loop's.
func TestTraceStitchesAcrossTTBR1GateMSR(t *testing.T) {
	sigs := map[pipelineMode]gateSig{}
	var d TraceStats
	var snap []TraceInfo
	for _, m := range []pipelineMode{modeTraced, modeBlocks, modeStep} {
		g := newGateEnv(t, gateProgram(arm64.MSR(arm64.TTBR0EL1, 17)), false)
		g.setMode(m)
		before := ReadTraceStats()
		g.gatePasses(t, 9)
		if m == modeTraced {
			d = ReadTraceStats().Sub(before)
			snap = g.c.TraceSnapshot()
		}
		sigs[m] = g.sig(m)
	}
	compareModes(t, "gate", sigs)
	if len(snap) != 1 || snap[0].EntryPC != uint64(gateCodeVA) || snap[0].Blocks != 4 || snap[0].Insns != 9 {
		t.Fatalf("traces %+v, want one 4-block, 9-instruction trace at the gate entry", snap)
	}
	if d.Stitched != 1 || d.StitchFailed != 0 || d.SideExits != 0 || d.Entered == 0 || d.Completed != d.Entered {
		t.Errorf("trace stats %+v: want 1 stitch, no failed walk, every entry completed", d)
	}
	// Passes 0 and 1 decode and count; pass 2 stitches; the six after it
	// run wholly in the trace.
	if want := uint64(6 * 9); d.InsnsRun != want {
		t.Errorf("%d instructions ran in traces, want %d", d.InsnsRun, want)
	}
	// Five passes switch to the space whose data page holds 7, four to 3.
	if x := sigs[modeTraced].x[0]; x != 5*(3+7)+4*(3+3) {
		t.Errorf("x0 = %d, want %d (the load after each write reads the new space)", x, 5*(3+7)+4*(3+3))
	}
}

// TestTraceGateMSRTrapsUnderTVM stitches the gate trace, then sets
// HCR_EL2.TVM: the MSR inside the entered trace traps to EL2, the trace
// stops there without completing, and the whole machine state matches
// the untraced pipelines' after the same trap.
func TestTraceGateMSRTrapsUnderTVM(t *testing.T) {
	sigs := map[pipelineMode]gateSig{}
	var d TraceStats
	for _, m := range []pipelineMode{modeTraced, modeBlocks, modeStep} {
		g := newGateEnv(t, gateProgram(arm64.MSR(arm64.TTBR0EL1, 17)), false)
		g.setMode(m)
		g.gatePasses(t, 4)
		g.c.SetSys(arm64.HCREL2, HCRTVM)
		before := ReadTraceStats()
		exit := g.pass(t, g.ttbrB)
		if m == modeTraced {
			d = ReadTraceStats().Sub(before)
		}
		if exit.TargetEL != arm64.EL2 || exit.Syndrome.Class != ECMSRTrap || exit.Syndrome.IsRead {
			t.Fatalf("%v: exit %+v, want an MSR write trap to EL2", m, exit)
		}
		if r, ok := arm64.LookupSysReg(exit.Syndrome.SysEnc); !ok || r != arm64.TTBR0EL1 {
			t.Fatalf("%v: trapped register %v, want TTBR0_EL1", m, r)
		}
		sigs[m] = g.sig(m)
	}
	compareModes(t, "tvm", sigs)
	if d.Entered != 1 || d.Completed != 0 || d.InsnsRun != 2 {
		t.Errorf("trace stats %+v: want the trace entered once, stopped at its second instruction", d)
	}
}

// TestTraceSysregWritesEndWalk checks the edge's bounds: MSR TTBR0_EL1 in
// TTBR0-half code, and MSR of TTBR1_EL1, SCTLR_EL1, TCR_EL1 and VBAR_EL1
// in TTBR1-half code, end the walk (each writes its register's current
// value back, so execution is unchanged), while the TTBR1-half TTBR0 write
// stitches past. Every case stays identical to the untraced pipelines.
func TestTraceSysregWritesEndWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  arm64.SysReg
		low  bool // load at codeVA, in the TTBR0 half
		past bool // the walk continues past the write
	}{
		{"ttbr0-in-ttbr1-half", arm64.TTBR0EL1, false, true},
		{"ttbr0-in-ttbr0-half", arm64.TTBR0EL1, true, false},
		{"ttbr1", arm64.TTBR1EL1, false, false},
		{"sctlr", arm64.SCTLREL1, false, false},
		{"tcr", arm64.TCREL1, false, false},
		{"vbar", arm64.VBAREL1, false, false},
	} {
		sigs := map[pipelineMode]gateSig{}
		var d TraceStats
		var snap []TraceInfo
		var entry uint64
		for _, m := range []pipelineMode{modeTraced, modeBlocks, modeStep} {
			g := newGateEnv(t, gateProgram(arm64.MSR(tc.reg, 20)), tc.low)
			g.setMode(m)
			entry = g.entry
			g.c.SetR(20, g.c.Sys(tc.reg))
			before := ReadTraceStats()
			for i := 0; i < 6; i++ {
				if exit := g.pass(t, g.ttbrA); exit.Syndrome.Class != ECHVC {
					t.Fatalf("%s %v pass %d: exit %+v, want HVC", tc.name, m, i, exit.Syndrome)
				}
			}
			if m == modeTraced {
				d = ReadTraceStats().Sub(before)
				snap = g.c.TraceSnapshot()
			}
			sigs[m] = g.sig(m)
		}
		compareModes(t, tc.name, sigs)
		msrPC := entry + arm64.InsnBytes
		past, atEntry := false, false
		for _, ti := range snap {
			atEntry = atEntry || ti.EntryPC == entry
			for i, pc := range ti.PCs {
				past = past || pc == msrPC && i < len(ti.PCs)-1
			}
		}
		if past != tc.past || atEntry != tc.past {
			t.Errorf("%s: a trace runs past the write: %v, starts at the entry: %v; want %v (traces %+v)",
				tc.name, past, atEntry, tc.past, snap)
		}
		if !tc.past && d.StitchFailed == 0 {
			t.Errorf("%s: no walk failed at the write: %+v", tc.name, d)
		}
	}
}

// TestTraceGateMSRHookSequence records every OnTTBR0Write call as (old,
// new, Cycles): the hook runs from the traced MSR with the batch flushed,
// so the sequence equals the block pipeline's and the Step loop's. In the
// "flush" case the hook, on the seventh switch only (inside the entered
// trace), invalidates the gate's own page (TLBI VA-style): the generations
// it moves must end the trace at the write, so the ISB after it fetches
// through a TLB walk exactly as it does untraced.
func TestTraceGateMSRHookSequence(t *testing.T) {
	type call struct {
		old, new uint64
		cycles   int64
	}
	for _, flush := range []bool{false, true} {
		name := map[bool]string{false: "record", true: "flush"}[flush]
		got := map[pipelineMode][]call{}
		sigs := map[pipelineMode]gateSig{}
		var d TraceStats
		for _, m := range []pipelineMode{modeTraced, modeBlocks, modeStep} {
			g := newGateEnv(t, gateProgram(arm64.MSR(arm64.TTBR0EL1, 17)), false)
			g.setMode(m)
			g.c.OnTTBR0Write = func(old, new uint64) {
				got[m] = append(got[m], call{old, new, g.c.Cycles})
				if flush && len(got[m]) == 7 {
					g.c.TLB.InvalidateVA(g.c.CurrentVMID(), gateCodeVA)
				}
			}
			before := ReadTraceStats()
			g.gatePasses(t, 8)
			if m == modeTraced {
				d = ReadTraceStats().Sub(before)
			}
			sigs[m] = g.sig(m)
		}
		compareModes(t, name, sigs)
		if d.Entered == 0 {
			t.Fatalf("%s: the gate trace was never entered", name)
		}
		if flush && (d.SideExits != 1 || d.InsnsRun != 3*9+2) {
			t.Errorf("%s: trace stats %+v; want one side exit, at the flushing write", name, d)
		}
		if len(got[modeTraced]) != 8 {
			t.Fatalf("%s: %d hook calls, want 8", name, len(got[modeTraced]))
		}
		for _, m := range []pipelineMode{modeBlocks, modeStep} {
			if !reflect.DeepEqual(got[modeTraced], got[m]) {
				t.Errorf("%s: hook sequence differs from the %v run:\n  traced %v\n  %-6v %v", name, m, got[modeTraced], m, got[m])
			}
		}
	}
}
