package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/verify"
)

func carmelHost() Platform { return Platform{Prof: arm64.ProfileCarmel()} }

// buildLifecycle assembles the shared conformance script: enter → allocate
// three domains → protect one page each in domains 1 and 2 → switch into
// domain 1 → legally access its page → free the idle domain 3 → touch
// domain 2's page from domain 1. The last access must kill the process
// with the backend's documented fault class; everything before it must
// succeed. Only the enter arguments and the switch instruction sequence
// differ per backend — the lifecycle itself is substrate-invariant.
func buildLifecycle(a *arm64.Asm, backend string) []core.GateEntry {
	page0 := domainRegionBase
	page1 := domainRegionBase + domainRegionStride
	scalable, pol := backendEnter(backend)
	svcCall(a, core.SysLZEnter, scalable, uint64(pol))
	hvcCall(a, core.SysLZAlloc)
	hvcCall(a, core.SysLZAlloc)
	hvcCall(a, core.SysLZAlloc)
	if backend == "lightzone" {
		hvcCall(a, core.SysLZMapGatePgt, 1, 0)
	}
	hvcCall(a, core.SysLZProt, page0, mem.PageSize, 1, core.PermRead|core.PermWrite)
	hvcCall(a, core.SysLZProt, page1, mem.PageSize, 2, core.PermRead|core.PermWrite)
	switch backend {
	case "lightzone":
		a.MovImm(13, core.GateCodeBase())
		a.ADR(30, "in1")
		a.Emit(arm64.BR(13))
		a.Label("in1")
	case "overlay":
		a.MovImm(14, 1)
		core.EmitOverlaySwitch(a, 14)
	case "granule":
		a.MovImm(0, 1)
		core.EmitGranuleEnter(a)
	}
	// Legal: domain 1 reads its own page.
	a.MovImm(13, page0)
	a.Emit(arm64.LDRImm(9, 13, 0, 3))
	// Free the idle spare domain.
	hvcCall(a, core.SysLZFree, 3)
	// Violation: domain 1 reads domain 2's page. Must not return.
	a.MovImm(13, page1)
	a.Emit(arm64.LDRImm(9, 13, 0, 3))
	hvcCall(a, kernel.SysExit, 0)
	if backend == "lightzone" {
		off, err := a.Offset("in1")
		if err != nil {
			return nil
		}
		return []core.GateEntry{{GateID: 0, Entry: uint64(off)}}
	}
	return nil
}

// TestBackendLifecycleConformance drives every backend through
// the same lifecycle script and asserts the documented per-backend fault
// class, the shared observer-event sequence, and that the post-mortem
// machine verifies clean under the backend's own checker registry.
func TestBackendLifecycleConformance(t *testing.T) {
	wantKill := map[string]string{
		"lightzone": "not mapped by current page table",
		"overlay":   "overlay key mismatch",
		"granule":   "granule protection fault",
	}
	// The lifecycle chokepoints every backend must announce, in order.
	// Backend-specific extras (gate binding, sanitizer passes) are filtered
	// out: the shared contract is about the shared lifecycle.
	lifecycle := map[string]bool{
		"lz_enter": true, "lz_alloc": true, "lz_prot": true, "lz_free": true,
	}
	wantEvents := []string{
		"lz_enter", "lz_alloc", "lz_alloc", "lz_alloc",
		"lz_prot", "lz_prot", "lz_free",
	}
	for _, backend := range core.Backends() {
		t.Run(backend, func(t *testing.T) {
			env, err := NewEnvBackend(carmelHost(), backend)
			if err != nil {
				t.Fatal(err)
			}
			var events []string
			env.LZ.Observer = func(event string, lp *core.LZProc) {
				if lifecycle[event] {
					events = append(events, event)
				}
			}
			a := arm64.NewAsm()
			entries := buildLifecycle(a, backend)
			p, err := env.NewProcess("lifecycle", a, nil, entries, kernel.VMA{
				Start: mem.VA(domainRegionBase),
				End:   mem.VA(domainRegionBase + 2*domainRegionStride),
				Prot:  kernel.ProtRead | kernel.ProtWrite,
				Name:  "domains",
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := env.Run(p, 100_000); err != nil {
				t.Fatal(err)
			}
			if !p.Killed {
				t.Fatalf("cross-domain access survived under %s", backend)
			}
			if !strings.Contains(p.KillMsg, wantKill[backend]) {
				t.Fatalf("kill message %q does not carry the %s fault class %q",
					p.KillMsg, backend, wantKill[backend])
			}
			if len(events) != len(wantEvents) {
				t.Fatalf("observer saw %v, want %v", events, wantEvents)
			}
			for i := range events {
				if events[i] != wantEvents[i] {
					t.Fatalf("observer event %d is %q, want %q (%v)", i, events[i], wantEvents[i], events)
				}
			}
			procs := env.LZ.Procs()
			if len(procs) != 1 || procs[0].BackendName() != backend {
				t.Fatalf("process backend not recorded: %v", procs)
			}
			rep, err := verify.RunMachine(env.M, env.LZ)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("post-mortem machine not clean under %s registry: %v", backend, rep.Findings)
			}
			wantChecker := map[string]string{
				"lightzone": "gate-integrity",
				"overlay":   "overlay-keys",
				"granule":   "granule-state",
			}[backend]
			found := false
			for _, c := range rep.Checkers {
				found = found || c.Name == wantChecker
			}
			if !found {
				t.Fatalf("report ran %v; expected the %s substrate checker %q", rep.Checkers, backend, wantChecker)
			}
		})
	}
}

// TestBackendRegistry pins the registry surface: the three backends, the
// unknown-name error, and per-backend checker selection.
func TestBackendRegistry(t *testing.T) {
	got := core.Backends()
	want := []string{"lightzone", "overlay", "granule"} // presentation order
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
	if _, err := core.NewBackend("enclave"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := NewEnvBackend(carmelHost(), "enclave"); err == nil {
		t.Fatal("NewEnvBackend accepted an unknown backend")
	}
	for backend, slot := range map[string]string{
		"lightzone": "gate-integrity",
		"overlay":   "overlay-keys",
		"granule":   "granule-state",
	} {
		names := make([]string, 0, 5)
		for _, c := range verify.CheckersFor(backend) {
			names = append(names, c.Name)
		}
		found := false
		for _, n := range names {
			found = found || n == slot
		}
		if !found {
			t.Fatalf("CheckersFor(%s) = %v, missing %s", backend, names, slot)
		}
	}
}

// TestBackendSwitchMeasures runs the three switch benchmarks at a small
// configuration and sanity-checks the cost ordering the backends' models
// promise: the granule switch pays a trap round trip and must dominate;
// the overlay and gate switches stay trap-free.
func TestBackendSwitchMeasures(t *testing.T) {
	cost := map[string]float64{}
	for _, b := range core.Backends() {
		res, err := RunDomainSwitch(DomainSwitchConfig{
			Platform: carmelHost(), Variant: BackendVariant(b), Domains: 8, Iters: 64, Seed: Table5Seed,
		})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		v := res.AvgCycles
		if v <= 0 {
			t.Fatalf("%s: non-positive switch cost %v", b, v)
		}
		cost[b] = v
	}
	if cost["granule"] <= cost["lightzone"] || cost["granule"] <= cost["overlay"] {
		t.Fatalf("granule switch should pay a trap round trip: %v", cost)
	}
	// On Carmel an EL1 system-register write costs hundreds of cycles, so
	// the overlay switch is NOT meaningfully cheaper than a gate pass —
	// that platform contrast is the point of the comparison matrix. On
	// Cortex-A55 the same write costs single digits and overlay must win.
	cortex := Platform{Prof: arm64.ProfileCortexA55()}
	ov, err := RunDomainSwitch(DomainSwitchConfig{Platform: cortex, Variant: VariantOverlay, Domains: 8, Iters: 64, Seed: Table5Seed})
	if err != nil {
		t.Fatal(err)
	}
	gate, err := RunDomainSwitch(DomainSwitchConfig{Platform: cortex, Variant: VariantLZTTBR, Domains: 8, Iters: 64, Seed: Table5Seed})
	if err != nil {
		t.Fatal(err)
	}
	if ov.AvgCycles >= gate.AvgCycles {
		t.Fatalf("on Cortex-A55 the overlay switch (%v) should undercut the gate pass (%v)", ov, gate)
	}
}

// TestBackendProtAndSyscall sanity-checks the remaining matrix metrics: the
// granule lz_prot pays two hypervisor round trips per page and must
// dominate, and the syscall path is substrate-invariant (identical cycles
// under all three backends).
func TestBackendProtAndSyscall(t *testing.T) {
	prot := map[string]float64{}
	var sys []float64
	for _, b := range core.Backends() {
		v, err := measureBackendProt(carmelHost(), b)
		if err != nil {
			t.Fatalf("%s prot: %v", b, err)
		}
		prot[b] = v
		env, err := NewEnvBackend(carmelHost(), b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := measureSyscall(env, true)
		if err != nil {
			t.Fatalf("%s syscall: %v", b, err)
		}
		sys = append(sys, s)
	}
	if prot["granule"] <= prot["lightzone"] || prot["granule"] <= prot["overlay"] {
		t.Fatalf("granule delegation should dominate lz_prot: %v", prot)
	}
	for i := 1; i < len(sys); i++ {
		if sys[i] != sys[0] {
			t.Fatalf("syscall roundtrip should be substrate-invariant: %v", sys)
		}
	}
}

// TestBackendCrossIsolation proves the cross-backend claim of the planted
// battery: the substrate-invariant attacks (W-xor-X flip, smuggled word)
// are caught on every backend's machine — by the same substrate-invariant
// checker, not by luck of the default registry.
func TestBackendCrossIsolation(t *testing.T) {
	attacks := []func(string) plantedAttack{attackWXFlip, attackSmuggledWord}
	for _, b := range core.Backends() {
		for _, mk := range attacks {
			atk := mk(b)
			env, va, _, err := atk.build(carmelHost())
			if err != nil {
				t.Fatalf("%s/%s: %v", b, atk.name, err)
			}
			rep, err := verify.RunMachine(env.M, env.LZ)
			if err != nil {
				t.Fatalf("%s/%s: %v", b, atk.name, err)
			}
			caught := false
			for _, fd := range rep.Findings {
				caught = caught || (fd.Checker == atk.checker && fd.VA == va)
			}
			if !caught {
				t.Fatalf("%s not caught by %s on the %s machine (%d findings)",
					atk.name, atk.checker, b, len(rep.Findings))
			}
		}
	}
}

// plantedRow is the pinned part of a PlantedResult.
type plantedRow struct {
	name, checker string
	va            uint64
	detail        string
}

// plantedGolden pins every battery's rows on Carmel Host, in order. The
// rows were computed before the batteries were built from shared
// constructors. To regenerate after an intended change, print each
// PlantedResult of Fleet.PlantedSweep as a plantedRow literal (%q, %q,
// %#x, %q) and justify every moved row.
var plantedGolden = map[string][]plantedRow{
	"lightzone": {
		{"wx-flip", "wx-audit", 0x400000, "writable and executable mapping (W xor X violated)"},
		{"gatetab-tamper", "gate-integrity", 0xffff800000340000, "gate 0: GateTab ENTRY is 0xdead0000, registered entry is 0x400210"},
		{"smuggled-word", "sanitizer-sweep", 0x400040, "sensitive instruction in executable page: tlb maintenance"},
		{"ttbr0-write-outside-gate", "cfg-reachability", 0x40001c, "reachable sensitive instruction: ttbr0 access outside call gate"},
		{"reachable-tlbi", "cfg-reachability", 0x400018, "reachable sensitive instruction: tlb maintenance"},
		{"gate-code-tamper", "gate-integrity", 0xffff800000300000, "gate 0: unexpected svc in the gate"},
		{"tlb-tamper", "cache-coherence", 0x400000, "TLB output base 0x2000 differs from current real frame 0x1000"},
		{"gate-pan-elide", "gate-semantics", 0xffff80000030004c, "gate 0: PAN not restored to its entry value on a gate exit path (left 0)"},
		{"gate-ttbr-unproven", "gate-semantics", 0xffff800000300014, "gate 0: TTBR0 switched to a value not proven to be page table 1's base 0x300000001a000 (got !⊤)"},
		{"gate-exit-redirect", "gate-semantics", 0xffff800000300048, "gate 0: exit target not proven to be the recorded return site 0x400210 (got 0x1)"},
		{"cow-cross-domain-share", "cow-aliasing", 0x11000, "frame storage aliased across the fork family: also backs PA(0x1000)"},
	},
	"overlay": {
		{"key-retag", "overlay-keys", 0x50000000, "descriptor overlay key 2 disagrees with the module's record 1"},
		{"ungranted-key", "overlay-keys", 0x50000000, "descriptor carries overlay key 200 which was never granted"},
		{"marker-strip", "overlay-keys", 0x50000000, "overlay key 1 on a descriptor without the protected marker"},
		{"wx-flip", "wx-audit", 0x400000, "writable and executable mapping (W xor X violated)"},
		{"smuggled-word", "sanitizer-sweep", 0x400040, "sensitive instruction in executable page: tlb maintenance"},
		{"ttbr0-write", "cfg-reachability", 0x40001c, "reachable sensitive instruction: ttbr0 access outside call gate"},
		{"reachable-tlbi", "cfg-reachability", 0x400018, "reachable sensitive instruction: tlb maintenance"},
		{"tlb-tamper", "cache-coherence", 0x400000, "TLB output base 0x2000 differs from current real frame 0x1000"},
	},
	"granule": {
		{"cross-zone-alias", "granule-state", 0x50000000, "granule assigned to zone 1 but mapped zone-protected in zone 2 (cross-zone alias)"},
		{"undelegated-tag", "granule-state", 0x10000000, "zone-protected mapping backs onto an undelegated granule"},
		{"unprotected-alias", "granule-state", 0x50000000, "delegated granule (zone 1) reachable through an unprotected mapping in table 1"},
		{"wx-flip", "wx-audit", 0x400000, "writable and executable mapping (W xor X violated)"},
		{"smuggled-word", "sanitizer-sweep", 0x400040, "sensitive instruction in executable page: tlb maintenance"},
		{"ttbr0-write", "cfg-reachability", 0x40001c, "reachable sensitive instruction: ttbr0 access outside call gate"},
		{"reachable-tlbi", "cfg-reachability", 0x400018, "reachable sensitive instruction: tlb maintenance"},
		{"tlb-tamper", "cache-coherence", 0x400000, "TLB output base 0x2000 differs from current real frame 0x1000"},
	},
}

// TestPlantedSweepBackends runs the full per-backend batteries: every
// attack must be caught by its designated checker at the planted address,
// and every battery's rows must match plantedGolden.
func TestPlantedSweepBackends(t *testing.T) {
	f := NewFleet(0)
	for _, b := range core.Backends() {
		res, err := f.PlantedSweep(carmelHost(), b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		for _, r := range res {
			if !r.Caught {
				t.Fatalf("%s/%s not caught", b, r.Name)
			}
		}
		want := plantedGolden[b]
		if len(res) != len(want) {
			t.Fatalf("%s: battery has %d rows, want %d", b, len(res), len(want))
		}
		for i, r := range res {
			if got := (plantedRow{r.Name, r.Checker, r.VA, r.Detail}); got != want[i] {
				t.Errorf("%s row %d:\n got %+v\nwant %+v", b, i, got, want[i])
			}
		}
	}
}

// backendSweepGolden is the sha256 of the Carmel Host comparison matrix
// (every backend, 200 switch iterations) marshalled as JSON, computed
// before the backend switch cells became domain-switch variants. To
// regenerate after an intended change, log the hash this test computes
// and justify every moved cell of the matrix it prints.
const backendSweepGolden = "901f66d61eb8e4cad1ba430b5d549a1d1baf8769cf0d2c87079d29ce79fec8fd"

// TestBackendSweepGolden pins the comparison matrix bit for bit.
func TestBackendSweepGolden(t *testing.T) {
	m, err := NewFleet(0).BackendSweep(carmelHost(), core.Backends(), 200)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != backendSweepGolden {
		t.Fatalf("comparison matrix moved: sha256 %s, want %s\n%s", got, backendSweepGolden, js)
	}
}
