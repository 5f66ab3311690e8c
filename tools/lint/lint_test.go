package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSource(t *testing.T, src string) []string {
	t.Helper()
	return lintNamed(t, "src.go", src)
}

func lintNamed(t *testing.T, name, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, f)
}

func TestCyclesWriteFlagged(t *testing.T) {
	probs := lintSource(t, `package core
func bad(c *VCPU) { c.Cycles += 3 }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "Charge") {
		t.Fatalf("want one Charge violation, got %v", probs)
	}
}

func TestCyclesIncDecFlagged(t *testing.T) {
	probs := lintSource(t, `package cpu
func tick(c *VCPU) { c.Cycles++ }
`)
	if len(probs) != 1 {
		t.Fatalf("want one violation, got %v", probs)
	}
}

func TestChargeAllowed(t *testing.T) {
	probs := lintSource(t, `package cpu
func (c *VCPU) Charge(n int64) { c.Cycles += n }
func (c *VCPU) ChargeInsns(n int64) { c.Cycles += n * c.Prof.InsnCost }
`)
	if len(probs) != 0 {
		t.Fatalf("Charge/ChargeInsns must be allowed, got %v", probs)
	}
}

func TestChargeOutsideCPUFlagged(t *testing.T) {
	// A function merely named Charge in another package gets no exemption.
	probs := lintSource(t, `package core
func Charge(c *VCPU) { c.Cycles += 1 }
`)
	if len(probs) != 1 {
		t.Fatalf("want one violation, got %v", probs)
	}
}

func TestHandlersWriteFlagged(t *testing.T) {
	probs := lintSource(t, `package cpu
func sneak() { handlers[3] = nil }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "buildHandlers") {
		t.Fatalf("want one handlers violation, got %v", probs)
	}
}

func TestBuildHandlersAllowed(t *testing.T) {
	probs := lintSource(t, `package cpu
func buildHandlers() [4]Handler {
	var handlers [4]Handler
	handlers[0] = nil
	handlers = handlers
	return handlers
}
`)
	if len(probs) != 0 {
		t.Fatalf("buildHandlers must be allowed, got %v", probs)
	}
}

func TestHandlersOutsideCPUIgnored(t *testing.T) {
	// Other packages may have their own unrelated "handlers" locals.
	probs := lintSource(t, `package kernel
func f() { handlers := map[int]int{}; handlers[1] = 2; _ = handlers }
`)
	if len(probs) != 0 {
		t.Fatalf("non-cpu handlers must be ignored, got %v", probs)
	}
}

func TestTLBEntriesConfinedToTLBFile(t *testing.T) {
	// Even a read of the entry map outside tlb.go widens the audit surface.
	probs := lintNamed(t, "stage1.go", `package mem
func peek(t *TLB) int { return len(t.entries) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "tlb.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestTLBEntriesAllowedInTLBFile(t *testing.T) {
	probs := lintNamed(t, "tlb.go", `package mem
func (t *TLB) size() int { return len(t.entries) }
`)
	if len(probs) != 0 {
		t.Fatalf("tlb.go must own .entries, got %v", probs)
	}
}

func TestMicroTLBConfinedToMicroTLBFile(t *testing.T) {
	probs := lintNamed(t, "exec.go", `package cpu
func fast(c *VCPU) bool { return c.mtlb.enabled }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "microtlb.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestOverlayKeysConfinedToOverlayFile(t *testing.T) {
	// Overlay key records are the overlay backend's private state: even a
	// read from another core file reaches across the Backend interface.
	probs := lintNamed(t, "lzproc.go", `package core
func peek(lp *LZProc) int { return len(lp.okeys) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "backend_overlay.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestOverlayKeysAllowedInOverlayFile(t *testing.T) {
	probs := lintNamed(t, "backend_overlay.go", `package core
func (b *overlayBackend) keys(lp *LZProc) int { return len(lp.okeys) }
`)
	if len(probs) != 0 {
		t.Fatalf("backend_overlay.go must own .okeys, got %v", probs)
	}
}

func TestGranuleStateConfinedToGranuleFile(t *testing.T) {
	probs := lintNamed(t, "module.go", `package core
func peek(lp *LZProc) bool { return lp.gran != nil }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "backend_granule.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestGateStateConfinedToGateFile(t *testing.T) {
	probs := lintNamed(t, "backend_lightzone.go", `package core
func peek(lp *LZProc) uint64 { return uint64(lp.gateTabPA) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "gate.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
}

func TestGateStateAllowedInGateFile(t *testing.T) {
	probs := lintNamed(t, "gate.go", `package core
func (lp *LZProc) gates() uint64 { return uint64(lp.gateTabPA) + uint64(lp.ttbrTabPA) }
`)
	if len(probs) != 0 {
		t.Fatalf("gate.go must own the gate state, got %v", probs)
	}
}

func TestBackendStateOutsideCoreIgnored(t *testing.T) {
	// Other packages may have their own unrelated fields with these names.
	probs := lintNamed(t, "anything.go", `package workload
func f(x *thing) int { return len(x.okeys) + len(x.gran) }
`)
	if len(probs) != 0 {
		t.Fatalf("non-core backend fields must be ignored, got %v", probs)
	}
}

func TestEntriesOutsideMemIgnored(t *testing.T) {
	// Other packages may have their own unrelated entries fields.
	probs := lintNamed(t, "memo.go", `package verify
func f(m *memo) int { return len(m.entries) }
`)
	if len(probs) != 0 {
		t.Fatalf("non-mem entries must be ignored, got %v", probs)
	}
}

// proofCase is one source file for the proof-confinement rule: want is ""
// for no violation, else a substring the single violation must contain.
type proofCase struct{ file, src, want string }

func checkProofCases(t *testing.T, cases []proofCase) {
	t.Helper()
	for _, tc := range cases {
		probs := lintNamed(t, tc.file, tc.src)
		if tc.want == "" {
			if len(probs) != 0 {
				t.Errorf("%s: want no violation, got %v", tc.file, probs)
			}
			continue
		}
		if len(probs) != 1 || !strings.Contains(probs[0], tc.want) {
			t.Errorf("%s: want one Proof violation naming %q, got %v", tc.file, tc.want, probs)
		}
	}
}

func TestBlockProofConfinedToAbsint(t *testing.T) {
	// A block proof literal outside the abstract interpreter is an unproven
	// claim wearing a proof's type — only ProveBlock may mint one.
	checkProofCases(t, []proofCase{
		{"blockcache.go", `package cpu
import "lightzone/internal/arm64/absint"
func forge() *absint.Proof { return &absint.Proof{SysregFree: true} }
`, "ProveBlock"},
		// The bare-identifier form is caught through a dot import.
		{"anything.go", `package verify
import . "lightzone/internal/arm64/absint"
func forge() Proof { return Proof{} }
`, "absint.Proof"},
	})
}

func TestTraceProofConfinedToAbsint(t *testing.T) {
	// A trace proof literal outside the abstract interpreter is a composed
	// claim nobody composed — only ComposeTrace may mint one.
	checkProofCases(t, []proofCase{
		{"trace.go", `package cpu
import "lightzone/internal/arm64/absint"
func forge() *absint.Proof { return &absint.Proof{PANFree: true} }
`, "ComposeTrace"},
		// absint itself composes trace proofs.
		{"proof.go", `package absint
func ComposeTrace() *Proof { return &Proof{} }
`, ""},
	})
}

func TestProofConfinedToAbsint(t *testing.T) {
	// The rule resolves Proof through the file's imports: a renamed absint
	// import is followed, and a type named Proof that is not absint's is not
	// a proof.
	checkProofCases(t, []proofCase{
		{"anything.go", `package verify
import ai "lightzone/internal/arm64/absint"
func forge() ai.Proof { return ai.Proof{} }
`, "absint.Proof"},
		// A local Proof, even beside an absint import.
		{"anything.go", `package verify
import "lightzone/internal/arm64/absint"
type Proof struct{ ok bool }
var _ = absint.ProveBlock
func mint() Proof { return Proof{ok: true} }
`, ""},
		// Another package's Proof.
		{"anything.go", `package verify
import "example.com/zk"
func mint() zk.Proof { return zk.Proof{} }
`, ""},
	})
}

func TestBlockProofAllowedInAbsint(t *testing.T) {
	probs := lintNamed(t, "blockproof.go", `package absint
func ProveBlock() *Proof { return &Proof{SysregFree: true} }
`)
	if len(probs) != 0 {
		t.Fatalf("absint must mint proofs, got %v", probs)
	}
}

func TestProofSlotConfinedToProofAudit(t *testing.T) {
	probs := lintNamed(t, "exec.go", `package cpu
func peek(b *dblock) bool { return b.proof != nil }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "proofaudit.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "proofaudit.go", `package cpu
func peek(b *dblock) bool { return b.proof != nil }
`)
	if len(probs) != 0 {
		t.Fatalf("proofaudit.go must own .proof, got %v", probs)
	}
}

func TestEpochsConfinedToBlockCache(t *testing.T) {
	// Epoch bumps are the proof/block invalidation chokepoint; touching the
	// tracker from another cpu file would add an unaudited chokepoint.
	probs := lintNamed(t, "mmu.go", `package cpu
func bump(d *BlockCache) { d.epochs.BumpVA(0) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "blockcache.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "blockcache.go", `package cpu
func bump(d *BlockCache) { d.epochs.BumpVA(0) }
`)
	if len(probs) != 0 {
		t.Fatalf("blockcache.go must own .epochs, got %v", probs)
	}
}

func TestTraceCacheConfinedToTraceFile(t *testing.T) {
	// Even a read of the trace cache outside trace.go widens the audit
	// surface of the trace compiler's soundness argument.
	probs := lintNamed(t, "exec.go", `package cpu
func hot(c *VCPU) int { return len(c.tcache.traces) }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "trace.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "trace.go", `package cpu
func hot(c *VCPU) int { return len(c.tcache.traces) }
`)
	if len(probs) != 0 {
		t.Fatalf("trace.go must own .tcache, got %v", probs)
	}
}

func TestCOWStateConfinedToPhysFile(t *testing.T) {
	// Even a read of the fork parent outside phys.go widens the audit
	// surface of the fork soundness argument.
	probs := lintNamed(t, "stage1.go", `package mem
func peek(m *PhysMem) *PhysMem { return m.parent }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "phys.go") {
		t.Fatalf("want one confinement violation, got %v", probs)
	}
	probs = lintNamed(t, "tlb.go", `package mem
func sneak(m, p *PhysMem) { m.chunks = p.chunks; m.parent = p }
`)
	if len(probs) != 3 {
		t.Fatalf("want three confinement violations, got %v", probs)
	}
	// Frame storage is phys.go's too: table code reaching into a chunk
	// would write a descriptor past both write funnels.
	probs = lintNamed(t, "table.go", `package mem
func poke(t *table, ci, fi int) { t.pm.chunks[ci].dense[fi][0] = 1 }
`)
	if len(probs) != 1 || !strings.Contains(probs[0], "phys.go") {
		t.Fatalf("want one storage confinement violation, got %v", probs)
	}
}

func TestCOWStateAllowedInPhysFile(t *testing.T) {
	probs := lintNamed(t, "phys.go", `package mem
func (m *PhysMem) forked() bool { return m.parent != nil && len(m.chunks) > 0 }
`)
	if len(probs) != 0 {
		t.Fatalf("phys.go must own the frame storage and fork parent, got %v", probs)
	}
}

func TestCOWStateOutsideMemIgnored(t *testing.T) {
	// Other packages may have their own unrelated fields with these names.
	probs := lintNamed(t, "anything.go", `package workload
func f(x *thing) *thing { return x.parent }
`)
	if len(probs) != 0 {
		t.Fatalf("non-mem parent fields must be ignored, got %v", probs)
	}
}
