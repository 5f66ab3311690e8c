package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/workload"
)

// Expectation classifies what the paper's semantics require of a run after
// an injection. Every chaos case must land in its injection's class — a
// perturbed run that matches none is a silent divergence and fails.
type Expectation string

const (
	// ExpectIdentical: the perturbation is host-side only (or perfectly
	// reverted), so state, cycle accounting and TLB statistics must all be
	// bit-identical to the baseline.
	ExpectIdentical Expectation = "identical"
	// ExpectConverge: the perturbation is architecturally visible only as
	// timing (TLB refills), so final state must equal the baseline while
	// cycles and TLB statistics may drift.
	ExpectConverge Expectation = "converge"
	// ExpectFlagged: the perturbation is a security-relevant tamper; the
	// named internal/verify checker must flag it at the injection site.
	ExpectFlagged Expectation = "flagged"
	// ExpectEnforced: the perturbation attacks the protection state itself
	// (a forced PAN set). The run must converge, or enforcement must kill
	// the process, or the only residue is the injected PSTATE.PAN bit.
	ExpectEnforced Expectation = "enforced"
)

// ErrNotReady tells the engine the machine has not yet reached the state
// the injection needs (gates not installed yet); it retries at the next
// slice boundary.
var ErrNotReady = errors.New("injection target not ready")

// InjectCtx hands an injection its target machine and the derived plan.
type InjectCtx struct {
	Env  *workload.Env
	Proc *kernel.Process
	Plan Plan
}

// Injection is one registered fault, applied at a trap-budget slice
// boundary — a clean architectural point: no instruction is in flight, no
// cycle batch is pending, the kernel has fully handled the last trap.
type Injection struct {
	Name    string
	Desc    string
	Expect  Expectation
	Checker string // the verify checker that must flag this (ExpectFlagged)
	// NeedsGates restricts the injection to scenarios with call gates.
	NeedsGates bool
	Apply      func(*InjectCtx) error
	// Revert, when set, undoes Apply after the verify registry has run at
	// the injection site — so verification is exercised under the flipped
	// context, and the restore must then be provably exact.
	Revert func(*InjectCtx)
}

// Injections returns the fault registry in a fixed order.
func Injections() []Injection {
	return []Injection{
		{
			Name: "mtlb-flush", Expect: ExpectIdentical,
			Desc:  "drop every host micro-TLB entry mid-run",
			Apply: func(ctx *InjectCtx) error { ctx.Env.M.CPU.FlushMicroTLBs(); return nil },
		},
		{
			// The name predates the clear-at-cap rule; committed journals pin it.
			Name: "block-cohort-evict", Expect: ExpectIdentical,
			Desc:  "drop every decoded block (as the cache cap does) and the resident cursor",
			Apply: func(ctx *InjectCtx) error { ctx.Env.M.CPU.DropDecodedBlocks(); return nil },
		},
		{
			Name: "decode-cache-off", Expect: ExpectIdentical,
			Desc:  "disable the decoded-block cache for the rest of the run",
			Apply: func(ctx *InjectCtx) error { ctx.Env.M.CPU.SetDecodeCache(false); return nil },
		},
		{
			Name: "fastpath-off", Expect: ExpectIdentical,
			Desc:  "disable the micro-TLBs for the rest of the run",
			Apply: func(ctx *InjectCtx) error { ctx.Env.M.CPU.SetHostFastpaths(false); return nil },
		},
		{
			Name: "pan-flip", Expect: ExpectIdentical,
			Desc: "flip PSTATE.PAN across the verification point, then restore it",
			Apply: func(ctx *InjectCtx) error {
				c := ctx.Env.M.CPU
				c.SetPAN(!c.PAN())
				return nil
			},
			Revert: func(ctx *InjectCtx) {
				c := ctx.Env.M.CPU
				c.SetPAN(!c.PAN())
			},
		},
		{
			Name: "asid-flip", Expect: ExpectIdentical,
			Desc: "flip TTBR0's ASID to a scratch value across the verification point, then restore it",
			Apply: func(ctx *InjectCtx) error {
				c := ctx.Env.M.CPU
				c.SetSys(arm64.TTBR0EL1, c.Sys(arm64.TTBR0EL1)^uint64(0xA5)<<cpu.TTBRASIDShift)
				return nil
			},
			Revert: func(ctx *InjectCtx) {
				c := ctx.Env.M.CPU
				c.SetSys(arm64.TTBR0EL1, c.Sys(arm64.TTBR0EL1)^uint64(0xA5)<<cpu.TTBRASIDShift)
			},
		},
		{
			Name: "tlb-evict-all", Expect: ExpectConverge,
			Desc:  "spurious full TLB invalidation (TLBI VMALLE1 the guest never issued)",
			Apply: func(ctx *InjectCtx) error { ctx.Env.M.CPU.TLB.InvalidateAll(); return nil },
		},
		{
			Name: "tlb-evict-asid", Expect: ExpectConverge,
			Desc: "spurious TLBI ASIDE1 for the current TTBR0 ASID",
			Apply: func(ctx *InjectCtx) error {
				c := ctx.Env.M.CPU
				c.TLB.InvalidateASID(c.CurrentVMID(), cpu.TTBRASID(c.Sys(arm64.TTBR0EL1)))
				return nil
			},
		},
		{
			Name: "tlb-evict-va", Expect: ExpectConverge,
			Desc: "spurious TLBI VAE1 for one benchmark domain page",
			Apply: func(ctx *InjectCtx) error {
				c := ctx.Env.M.CPU
				c.TLB.InvalidateVA(c.CurrentVMID(), workload.DomainVA(int(ctx.Plan.Arg)))
				return nil
			},
		},
		{
			Name: "pan-set", Expect: ExpectEnforced,
			Desc:  "force PSTATE.PAN on and leave it — enforcement must catch any resulting access, or the run converges up to the injected bit",
			Apply: func(ctx *InjectCtx) error { ctx.Env.M.CPU.SetPAN(true); return nil },
		},
		{
			Name: "gatetab-tamper", Expect: ExpectFlagged, Checker: "gate-integrity", NeedsGates: true,
			Desc: "overwrite gate 0's GateTab entry with a bogus target",
			Apply: func(ctx *InjectCtx) error {
				lp, err := chaosLZProc(ctx)
				if err != nil {
					return err
				}
				return ctx.Env.M.PM.WriteU64(lp.GateTabPA(), 0xdead_0000)
			},
		},
		{
			Name: "gate-code-tamper", Expect: ExpectFlagged, Checker: "gate-integrity", NeedsGates: true,
			Desc: "overwrite the first instruction of gate 0's code slot",
			Apply: func(ctx *InjectCtx) error {
				lp, err := chaosLZProc(ctx)
				if err != nil {
					return err
				}
				slotVA := core.GateCodeBase()
				res, err := lp.TTBR1Table().Walk(mem.VA(slotVA))
				if err != nil || !res.Found {
					return ErrNotReady
				}
				real, ok := lp.Fake().RealOf(mem.IPA(res.Desc & mem.OAMask))
				if !ok {
					return fmt.Errorf("no real frame behind gate slot")
				}
				var buf [4]byte
				binary.LittleEndian.PutUint32(buf[:], arm64.SVC(0))
				return ctx.Env.M.PM.Write(real+mem.PA(slotVA&mem.PageMask), buf[:])
			},
		},
	}
}

// InjectionByName resolves a registered injection.
func InjectionByName(name string) (Injection, bool) {
	for _, inj := range Injections() {
		if inj.Name == name {
			return inj, true
		}
	}
	return Injection{}, false
}

// chaosLZProc fetches the run's LightZone process with its gates installed,
// or ErrNotReady while setup is still in flight.
func chaosLZProc(ctx *InjectCtx) (*core.LZProc, error) {
	procs := ctx.Env.LZ.Procs()
	if len(procs) == 0 || len(procs[0].Gates()) == 0 {
		return nil, ErrNotReady
	}
	return procs[0], nil
}

// Scenario is one benchmark configuration the chaos engine perturbs. All
// scenarios run on the Cortex-A55 host platform — the cheapest cell; the
// platform axis is covered by the identity suites, injection coverage is
// what matters here.
type Scenario struct {
	Name    string `json:"name"`
	Variant string `json:"variant"`
	Domains int    `json:"domains"`
	Iters   int    `json:"iters"`
	// Gates reports whether the variant installs call gates, gating the
	// tamper injections.
	Gates bool `json:"gates,omitempty"`
	// SliceChoices are the trap-budget slice sizes DerivePlans picks from,
	// sized so every scenario crosses several boundaries: the PAN variant
	// traps fewer than ten times end-to-end, the watchpoint baseline traps
	// on every measured iteration.
	SliceChoices []int64 `json:"slice_choices,omitempty"`
}

// Scenarios returns the chaos targets: the gate-rich scalable variant, the
// PAN variant, and the trap-per-iteration watchpoint baseline (whose
// measured loop is the only one with mid-loop slice boundaries).
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "ttbr-8", Variant: string(workload.VariantLZTTBR), Domains: 8, Iters: 200, Gates: true,
			SliceChoices: []int64{4, 8, 16}},
		{Name: "pan-8", Variant: string(workload.VariantLZPAN), Domains: 8, Iters: 200,
			SliceChoices: []int64{1, 2, 3}},
		{Name: "watchpoint-4", Variant: string(workload.VariantWatchpoint), Domains: 4, Iters: 120,
			SliceChoices: []int64{8, 16, 32}},
	}
}

// ScenarioByName resolves a registered scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Config builds the workload configuration for the scenario.
func (s Scenario) Config() workload.DomainSwitchConfig {
	return workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.Variant(s.Variant),
		Domains:  s.Domains,
		Iters:    s.Iters,
		Seed:     workload.Table5Seed,
	}
}

// Plan is one derived chaos case: which scenario to run, which fault to
// inject, how to slice the run, and where to fire. Everything is derived
// deterministically from (case index, sweep seed), so a failing case
// replays from its journal alone.
type Plan struct {
	Case       int    `json:"case"`
	Scenario   string `json:"scenario"`
	Injection  string `json:"injection"`
	SliceTraps int64  `json:"slice_traps"`
	// InjectAt selects the firing slice boundary; the engine reduces it
	// modulo the baseline's boundary count so it always lands in-run.
	InjectAt int `json:"inject_at"`
	// Repeat fires the injection at this many consecutive boundaries.
	Repeat int `json:"repeat"`
	// Arg parameterizes the injection (domain index for targeted TLBI).
	Arg int64 `json:"arg,omitempty"`
}

// DerivePlans expands (n, seed) into n chaos plans. Each case uses its own
// seeded stream, so plans are independent of n: extending a sweep from 8 to
// 32 cases reruns the same first 8.
func DerivePlans(n int, seed int64) []Plan {
	scenarios := Scenarios()
	injections := Injections()
	plans := make([]Plan, n)
	for i := range plans {
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		scn := scenarios[rng.Intn(len(scenarios))]
		var applicable []Injection
		for _, inj := range injections {
			if inj.NeedsGates && !scn.Gates {
				continue
			}
			applicable = append(applicable, inj)
		}
		inj := applicable[rng.Intn(len(applicable))]
		plans[i] = Plan{
			Case:       i,
			Scenario:   scn.Name,
			Injection:  inj.Name,
			SliceTraps: scn.SliceChoices[rng.Intn(len(scn.SliceChoices))],
			InjectAt:   rng.Intn(64),
			Repeat:     1 + rng.Intn(2),
			Arg:        int64(rng.Intn(scn.Domains)),
		}
	}
	return plans
}
