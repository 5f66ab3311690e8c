package absint

import (
	"fmt"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

func region(base uint64, words []uint32) Region {
	insns := make([]arm64.Insn, len(words))
	for i, w := range words {
		insns[i] = arm64.Decode(w)
	}
	return Region{Base: base, Insns: insns, Raw: words}
}

// fixedOracle proves exactly the addresses it holds.
type fixedOracle map[uint64]uint64

func (o fixedOracle) ReadConst(va uint64, size int) (uint64, bool) {
	v, ok := o[va]
	return v, ok
}

func TestDomainLattice(t *testing.T) {
	if !ConstVal(5, false).Trusted() {
		t.Fatal("untainted const must be trusted")
	}
	if ConstVal(5, true).Trusted() || TopVal(false).Trusted() {
		t.Fatal("tainted or non-const values must not be trusted")
	}
	j := Join(ConstVal(2, false), ConstVal(7, true))
	if j.K != Range || j.Lo != 2 || j.Hi != 7 || !j.Taint {
		t.Fatalf("join: got %v", j)
	}
	if _, ok := Meet(ConstVal(1, false), ConstVal(2, false)); ok {
		t.Fatal("meet of distinct constants must be infeasible")
	}
	m, ok := Meet(TopVal(true), ConstVal(9, false))
	if !ok || !m.Trusted() || m.Lo != 9 {
		t.Fatalf("meet with untainted const must launder taint: got %v ok=%v", m, ok)
	}
	// Constant folding wraps precisely; interval wraparound widens.
	if s := addVal(ConstVal(^uint64(0), false), ConstVal(2, false)); s.Lo != 1 || s.K != Const {
		t.Fatalf("const add must wrap precisely: got %v", s)
	}
	if s := addVal(RangeVal(^uint64(0)-1, ^uint64(0), false), RangeVal(2, 3, false)); s.K != Top {
		t.Fatalf("wrapping interval add must widen: got %v", s)
	}
	if a := andVal(TopVal(true), ConstVal(0xFF, false)); a.K != Range || a.Hi != 0xFF {
		t.Fatalf("and with const mask must bound: got %v", a)
	}
	if r := shrVal(TopVal(false), 60); r.K != Range || r.Hi != 0xF {
		t.Fatalf("shr of top must bound: got %v", r)
	}
}

func TestEntryStateIsTainted(t *testing.T) {
	var nid uint32
	s := NewEntryState(&nid)
	for r := uint8(0); r < 31; r++ {
		if v := s.Reg(r); v.K != Top || !v.Taint {
			t.Fatalf("x%d at entry: got %v, want tainted top", r, v)
		}
	}
	if v, written, _ := s.TTBR0(); written || v.K != Top || !v.Taint {
		t.Fatalf("ttbr0 at entry: got %v written=%v", v, written)
	}
	if b, _ := s.PAN(); b != BitEntry {
		t.Fatalf("pan at entry: got %v", b)
	}
	if v := s.Reg(31); !v.Trusted() || v.Lo != 0 {
		t.Fatalf("xzr must read as untainted zero: got %v", v)
	}
}

// A literal-pool load through the oracle followed by MSR TTBR0 must leave a
// proven, trusted translation base — the clean-gate install phase.
func TestExploreOracleLoadProvesTTBR0(t *testing.T) {
	base := uint64(0x4000)
	words := []uint32{
		arm64.ADR(16, 24),          // x16 = base+24 (literal pool)
		arm64.LDRImm(17, 16, 0, 3), // x17 = [x16]
		arm64.MSR(arm64.TTBR0EL1, 17),
		arm64.WordISB,
		arm64.RET(30),
	}
	rg := region(base, words)
	orc := fixedOracle{base + 24: 0xA000}
	paths, complete := Explore(rg, base, Config{Oracle: orc})
	if !complete || len(paths) != 1 {
		t.Fatalf("got %d paths complete=%v", len(paths), complete)
	}
	p := paths[0]
	if p.Exit != ExitRET || p.ExitPC != base+16 {
		t.Fatalf("exit %v at %#x", p.Exit, p.ExitPC)
	}
	v, written, va := p.St.TTBR0()
	if !written || va != base+8 || !v.Trusted() || v.Lo != 0xA000 {
		t.Fatalf("ttbr0: v=%v written=%v va=%#x", v, written, va)
	}
	var sysWrites, barriers, reads int
	for _, e := range p.Effects {
		switch e.Kind {
		case EffSysRegWrite:
			sysWrites++
			if e.Sys.Key() != arm64.TTBR0EL1.Enc().Key() {
				t.Fatalf("unexpected sysreg write: %v", e.Sys)
			}
		case EffBarrier:
			barriers++
		case EffMemRead:
			reads++
		}
	}
	if sysWrites != 1 || barriers != 1 || reads != 1 {
		t.Fatalf("effects: sys=%d barrier=%d read=%d", sysWrites, barriers, reads)
	}
	// Without the oracle the same code leaves TTBR0 tainted.
	paths, _ = Explore(rg, base, Config{})
	if v, _, _ := paths[0].St.TTBR0(); v.Trusted() {
		t.Fatalf("oracle-free load must not be trusted: %v", v)
	}
}

// The gate check phase: CMP of an MRS readback against an oracle-proven
// constant must, on the EQ edge, launder TTBR0 itself to trusted — the
// identity link between the MRS destination and the tracked TTBR0.
func TestExploreCompareRefinesTTBR0Aliases(t *testing.T) {
	base := uint64(0x8000)
	words := []uint32{
		arm64.MRS(19, arm64.TTBR0EL1),
		arm64.ADR(18, 24), // pc is base+4: literal pool at base+28
		arm64.LDRImm(20, 18, 0, 3),
		arm64.CMPReg(19, 20),
		arm64.BCond(arm64.CondNE, 0x100), // fail path leaves the region
		arm64.RET(30),
	}
	rg := region(base, words)
	paths, complete := Explore(rg, base, Config{Oracle: fixedOracle{base + 28: 0xB000}})
	if !complete || len(paths) != 2 {
		t.Fatalf("got %d paths complete=%v", len(paths), complete)
	}
	var sawRET, sawOut bool
	for _, p := range paths {
		switch p.Exit {
		case ExitRET:
			sawRET = true
			v, _, _ := p.St.TTBR0()
			if !v.Trusted() || v.Lo != 0xB000 {
				t.Fatalf("EQ edge must refine ttbr0 via alias: %v", v)
			}
			if r := p.St.Reg(19); !r.Trusted() || r.Lo != 0xB000 {
				t.Fatalf("EQ edge must refine x19: %v", r)
			}
		case ExitBranchOut:
			sawOut = true
			if v, _, _ := p.St.TTBR0(); v.Trusted() {
				t.Fatalf("NE edge must not refine ttbr0: %v", v)
			}
		default:
			t.Fatalf("unexpected exit %v", p.Exit)
		}
	}
	if !sawRET || !sawOut {
		t.Fatalf("missing paths: ret=%v out=%v", sawRET, sawOut)
	}
}

// Comparing a register against a copy of itself (the planted
// gate-ttbr-unproven shape) self-trivializes: the NE edge is infeasible and
// the EQ edge learns nothing.
func TestExploreSelfCompareIsTrivial(t *testing.T) {
	base := uint64(0xC000)
	words := []uint32{
		arm64.MRS(19, arm64.TTBR0EL1),
		arm64.MOVReg(20, 19), // alias, same identity
		arm64.CMPReg(19, 20),
		arm64.BCond(arm64.CondNE, 0x100),
		arm64.RET(30),
	}
	paths, complete := Explore(region(base, words), base, Config{})
	if !complete || len(paths) != 1 {
		t.Fatalf("self-compare NE edge must be pruned: %d paths", len(paths))
	}
	p := paths[0]
	if p.Exit != ExitRET {
		t.Fatalf("exit %v", p.Exit)
	}
	if v, _, _ := p.St.TTBR0(); v.Trusted() {
		t.Fatalf("self-compare must not launder ttbr0: %v", v)
	}
}

// The planted gate-pan-elide shape: a CBNZ that dynamically always skips the
// PAN write still has a statically feasible fallthrough where PAN moved.
func TestExploreCBNZForksPANElision(t *testing.T) {
	base := uint64(0x2000)
	words := []uint32{
		arm64.CBNZ(19, 8), // skip over the PAN write
		arm64.MSRPan(0),
		arm64.RET(30),
	}
	paths, complete := Explore(region(base, words), base, Config{})
	if !complete || len(paths) != 2 {
		t.Fatalf("got %d paths complete=%v", len(paths), complete)
	}
	var sawElided, sawClean bool
	for _, p := range paths {
		if p.Exit != ExitRET {
			t.Fatalf("exit %v", p.Exit)
		}
		b, va := p.St.PAN()
		switch b {
		case Bit0:
			sawElided = true
			if va != base+4 {
				t.Fatalf("pan write va %#x", va)
			}
			if v, ok := p.St.Reg(19).IsConst(); !ok || v != 0 {
				t.Fatalf("fallthrough must refine x19 to zero: %v", p.St.Reg(19))
			}
		case BitEntry:
			sawClean = true
		default:
			t.Fatalf("pan %v", b)
		}
	}
	if !sawElided || !sawClean {
		t.Fatalf("paths: elided=%v clean=%v", sawElided, sawClean)
	}
}

func TestExploreBudgetFailsClosed(t *testing.T) {
	base := uint64(0x1000)
	words := []uint32{arm64.B(0)} // tight self-loop
	_, complete := Explore(region(base, words), base, Config{MaxSteps: 16})
	if complete {
		t.Fatal("self-loop must exhaust the budget")
	}
}

func TestExploreUndefWords(t *testing.T) {
	base := uint64(0x3000)
	paths, complete := Explore(region(base, []uint32{0}), base, Config{})
	if !complete || len(paths) != 1 || paths[0].Exit != ExitUndefZero {
		t.Fatalf("zero word: %+v complete=%v", paths, complete)
	}
	paths, complete = Explore(region(base, []uint32{0xFFFF_FFFF}), base, Config{})
	if !complete || len(paths) != 1 || paths[0].Exit != ExitUndef {
		t.Fatalf("junk word: %+v complete=%v", paths, complete)
	}
}

func TestExploreExitTargets(t *testing.T) {
	base := uint64(0x5000)
	// BLR x1 records a trusted link register and exits through the register.
	words := []uint32{arm64.BLR(1)}
	paths, _ := Explore(region(base, words), base, Config{})
	if len(paths) != 1 || paths[0].Exit != ExitBR {
		t.Fatalf("paths %+v", paths)
	}
	if lr := paths[0].St.Reg(30); !lr.Trusted() || lr.Lo != base+4 {
		t.Fatalf("blr link: %v", lr)
	}
	if paths[0].Target.K != Top {
		t.Fatalf("blr target must be unknown: %v", paths[0].Target)
	}
	// HVC carries its immediate out.
	paths, _ = Explore(region(base, []uint32{arm64.HVC(0x4C00)}), base, Config{})
	if len(paths) != 1 || paths[0].Exit != ExitHVC || paths[0].ExitImm != 0x4C00 {
		t.Fatalf("hvc: %+v", paths[0])
	}
}

func TestProveBlockClaims(t *testing.T) {
	base := uint64(0x6000)
	words := []uint32{
		arm64.ADR(16, 24),          // x16 = base+24
		arm64.LDRImm(17, 16, 0, 3), // known-page read
		arm64.STRImm(17, 1, 0, 3),  // unknown-page write
		arm64.WordISB,
		arm64.B(4), // terminator
	}
	insns := make([]arm64.Insn, len(words))
	for i, w := range words {
		insns[i] = arm64.Decode(w)
	}
	p := ProveBlock(base, insns)
	if p.Insns != 5 || p.Term != arm64.OpB {
		t.Fatalf("shape: %+v", p)
	}
	if !p.SysregFree || !p.PANFree {
		t.Fatalf("pure block misclassified: %+v", p)
	}
	if len(p.Claims) != 2 {
		t.Fatalf("claims: %+v", p.Claims)
	}
	rd, wr := p.Claims[0], p.Claims[1]
	if rd.Write || !rd.Known || rd.Page != (base+24)>>mem.PageShift || rd.Size != 8 {
		t.Fatalf("read claim: %+v", rd)
	}
	if !wr.Write || wr.Known || wr.Size != 8 {
		t.Fatalf("write claim: %+v", wr)
	}
	if p.ISBs != 1 || p.DSBs != 0 {
		t.Fatalf("barriers: %+v", p)
	}
	if got := p.InteriorAccesses(); got != 2 {
		t.Fatalf("interior accesses: %d", got)
	}
}

func TestProveBlockSysregShapes(t *testing.T) {
	msr := []arm64.Insn{
		arm64.Decode(arm64.MOVZ(17, 0xA, 1)),
		arm64.Decode(arm64.MSR(arm64.TTBR0EL1, 17)),
	}
	p := ProveBlock(0x7000, msr)
	if p.SysregFree || !p.PANFree || p.Term != arm64.OpMSRReg {
		t.Fatalf("msr block: %+v", p)
	}
	pan := []arm64.Insn{arm64.Decode(arm64.MSRPan(1))}
	p = ProveBlock(0x7000, pan)
	if p.SysregFree || p.PANFree {
		t.Fatalf("pan block: %+v", p)
	}
	// A terminator's own access is not interior.
	ld := []arm64.Insn{arm64.Decode(arm64.LDRImm(0, 1, 0, 3))}
	p = ProveBlock(0x7000, ld)
	if len(p.Claims) != 1 || p.InteriorAccesses() != 0 {
		t.Fatalf("single-insn block: %+v", p)
	}
}

// prove decodes words and proves them as one block at pc.
func prove(pc uint64, words ...uint32) *Proof {
	insns := make([]arm64.Insn, len(words))
	for i, w := range words {
		insns[i] = arm64.Decode(w)
	}
	return ProveBlock(pc, insns)
}

func TestComposeTrace(t *testing.T) {
	add := arm64.ADDImm(0, 0, 1, false)
	// a's B is taken to b, b's BL to the leaf c: three non-contiguous
	// members with accesses in each.
	a := prove(0x1000, arm64.LDRImm(1, 2, 0, 3), arm64.STRImm(1, 3, 0, 3), arm64.B(0x100))
	b := prove(0x1108, add, arm64.LDRImm(4, 2, 0, 2), arm64.BL(0x40))
	c := prove(0x1150, arm64.STRImm(4, 3, 0, 2), arm64.RET(30))
	// A member (block) proof carries no PC list and no trace terms; PCAt
	// counts from its PC.
	if a.PCs != nil || a.PCAt(2) != 0x1008 || a.Branches != 0 || a.PanToggles != 0 {
		t.Fatalf("block proof: %+v", a)
	}
	pure := prove(0x2000, add, arm64.B(8))
	ttbr := prove(0x3000, arm64.MSR(arm64.TTBR0EL1, 1))
	pan := prove(0x4000, add, arm64.MSRPan(1))
	repeat := func(p *Proof, n int) (proofs []*Proof, pcs []uint64) {
		for i := 0; i < n; i++ {
			proofs = append(proofs, p)
			pcs = append(pcs, p.PC, p.PC+arm64.InsnBytes)
		}
		return proofs, pcs
	}
	pures, purePCs := repeat(pure, 10)
	pans, panPCs := repeat(pan, 3)
	type claim struct {
		index int
		write bool
	}
	for _, tc := range []struct {
		name   string
		proofs []*Proof
		edges  []TraceEdge
		nilOut bool

		pcs                  []uint64
		claims               []claim
		branches, panToggles int
		sysregFree, panFree  bool
	}{
		{
			name:   "claims rebased along taken branches",
			proofs: []*Proof{a, b, c},
			edges:  []TraceEdge{{Term: arm64.OpB}, {Term: arm64.OpBL}},
			pcs:    []uint64{0x1000, 0x1004, 0x1008, 0x1108, 0x110c, 0x1110, 0x1150, 0x1154},
			claims: []claim{{0, false}, {1, true}, {4, false}, {6, true}},
			// c's RET is the trace's own exit, not an edge.
			branches: 2, sysregFree: true, panFree: true,
		},
		{
			name:   "unconditional edges always charge, conditional ones only when taken",
			proofs: pures,
			edges: []TraceEdge{
				{Term: arm64.OpB}, {Term: arm64.OpBL}, {Term: arm64.OpRET},
				{Term: arm64.OpBCond}, {Term: arm64.OpBCond, TakenPred: true},
				{Term: arm64.OpCBZ}, {Term: arm64.OpCBZ, TakenPred: true},
				{Term: arm64.OpCBNZ}, {Term: arm64.OpCBNZ, TakenPred: true},
			},
			pcs:      purePCs,
			branches: 6, sysregFree: true, panFree: true,
		},
		{
			name:   "fused PAN edges toggle; freedom is the conjunction",
			proofs: append(pans, pure),
			edges: []TraceEdge{
				{Term: arm64.OpMSRImm, FusedPAN: true}, {Term: arm64.OpMSRImm},
				{Term: arm64.OpMSRImm, FusedPAN: true},
			},
			pcs:        append(panPCs, 0x2000, 0x2004),
			panToggles: 2,
		},
		{
			name:     "a sysreg write keeps PAN freedom",
			proofs:   []*Proof{pure, ttbr},
			edges:    []TraceEdge{{Term: arm64.OpB}},
			pcs:      []uint64{0x2000, 0x2004, 0x3000},
			branches: 1, panFree: true,
		},
		{name: "no proofs", nilOut: true},
		{name: "one proof", proofs: []*Proof{a}, nilOut: true},
		{name: "too few edges", proofs: []*Proof{a, b}, nilOut: true},
		{name: "too many edges", proofs: []*Proof{a, b},
			edges: []TraceEdge{{Term: arm64.OpB}, {Term: arm64.OpB}}, nilOut: true},
		{name: "nil first member", proofs: []*Proof{nil, b},
			edges: []TraceEdge{{Term: arm64.OpB}}, nilOut: true},
		{name: "nil later member", proofs: []*Proof{a, nil, c},
			edges: []TraceEdge{{Term: arm64.OpB}, {Term: arm64.OpBL}}, nilOut: true},
	} {
		var entry uint64
		if len(tc.proofs) > 0 && tc.proofs[0] != nil {
			entry = tc.proofs[0].PC
		}
		tp := ComposeTrace(entry, tc.proofs, tc.edges)
		if tc.nilOut {
			if tp != nil {
				t.Errorf("%s: malformed input composed %+v", tc.name, tp)
			}
			continue
		}
		if tp == nil {
			t.Errorf("%s: composition refused", tc.name)
			continue
		}
		if tp.PC != entry || tp.Insns != len(tc.pcs) || len(tp.PCs) != len(tc.pcs) {
			t.Errorf("%s: pc %#x, %d insns, %d PCs; want %#x and %d", tc.name, tp.PC, tp.Insns, len(tp.PCs), entry, len(tc.pcs))
			continue
		}
		for i, want := range tc.pcs {
			if tp.PCAt(i) != want {
				t.Errorf("%s: step %d at %#x, want %#x", tc.name, i, tp.PCAt(i), want)
			}
		}
		got := make([]claim, len(tp.Claims))
		for i, cl := range tp.Claims {
			got[i] = claim{cl.Index, cl.Write}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.claims) {
			t.Errorf("%s: claims %v, want %v", tc.name, got, tc.claims)
		}
		if tp.Branches != tc.branches || tp.PanToggles != tc.panToggles {
			t.Errorf("%s: %d branches, %d PAN toggles; want %d and %d",
				tc.name, tp.Branches, tp.PanToggles, tc.branches, tc.panToggles)
		}
		if tp.SysregFree != tc.sysregFree || tp.PANFree != tc.panFree {
			t.Errorf("%s: sysreg-free %v, PAN-free %v; want %v and %v",
				tc.name, tp.SysregFree, tp.PANFree, tc.sysregFree, tc.panFree)
		}
	}
}
