package replay

import (
	"reflect"
	"testing"

	"lightzone/internal/workload"
)

// chaosPlan builds a hand-written plan against the registered entities.
func chaosPlan(t *testing.T, scenario, injection string, at int) Plan {
	t.Helper()
	scn, ok := ScenarioByName(scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", scenario)
	}
	if _, ok := InjectionByName(injection); !ok {
		t.Fatalf("unknown injection %q", injection)
	}
	return Plan{Scenario: scenario, Injection: injection,
		SliceTraps: scn.SliceChoices[0], InjectAt: at, Repeat: 1}
}

// TestChaosExpectationClasses drives one representative injection per
// expectation class end-to-end and requires each to land in its class.
func TestChaosExpectationClasses(t *testing.T) {
	cases := []struct {
		name      string
		plan      Plan
		wantClass Expectation
	}{
		{"host-invisible", chaosPlan(t, "ttbr-8", "mtlb-flush", 3), ExpectIdentical},
		{"timing-only", chaosPlan(t, "watchpoint-4", "tlb-evict-all", 9), ExpectConverge},
		{"tamper-flagged", chaosPlan(t, "ttbr-8", "gatetab-tamper", 5), ExpectFlagged},
		{"protection-attack", chaosPlan(t, "pan-8", "pan-set", 2), ExpectEnforced},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := RunChaosCase(tc.plan)
			if !res.Pass {
				t.Fatalf("case failed: %+v", res)
			}
			if res.Expect != string(tc.wantClass) {
				t.Errorf("expectation class %q, want %q", res.Expect, tc.wantClass)
			}
			if res.Applied == 0 {
				t.Error("injection never applied")
			}
			t.Logf("outcome=%s delta=%q", res.Outcome, res.Delta)
		})
	}
}

// TestChaosRevertedFlipsAreIdentical exercises the context-flip injections
// whose revert must be provably exact.
func TestChaosRevertedFlipsAreIdentical(t *testing.T) {
	for _, inj := range []string{"pan-flip", "asid-flip", "block-cohort-evict", "fastpath-off"} {
		res := RunChaosCase(chaosPlan(t, "ttbr-8", inj, 4))
		if !res.Pass {
			t.Errorf("%s: %+v", inj, res)
		} else if res.Outcome != "identical" {
			t.Errorf("%s: outcome %q, want identical (%s)", inj, res.Outcome, res.Delta)
		}
	}
}

// TestChaosGateCodeTamperFlagged covers the second tamper path: the gate
// slot's code bytes, not its table entry.
func TestChaosGateCodeTamperFlagged(t *testing.T) {
	res := RunChaosCase(chaosPlan(t, "ttbr-8", "gate-code-tamper", 6))
	if !res.Pass || res.Outcome != "flagged" {
		t.Fatalf("%+v", res)
	}
}

// TestChaosSweepDeterministicAcrossWidths requires a sweep's results to be
// byte-identical at any fleet width — chaos rows are fleet cells like any
// other measurement — and equal to each case run alone, so sharing one
// verifier memo across the sweep changes no verdict.
func TestChaosSweepDeterministicAcrossWidths(t *testing.T) {
	const n, seed = 6, 11
	seq, err := ChaosSweep(workload.NewFleet(1), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range seq {
		if !r.Pass {
			t.Errorf("case %d failed: %+v", i, r)
		}
	}
	par, err := ChaosSweep(workload.NewFleet(4), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sweep diverged across fleet widths\nseq: %+v\npar: %+v", seq, par)
	}
	for i, plan := range DerivePlans(n, seed) {
		if alone := RunChaosCase(plan); !reflect.DeepEqual(seq[i], alone) || !reflect.DeepEqual(par[i], alone) {
			t.Errorf("case %d differs from the case run alone\nseq:   %+v\npar:   %+v\nalone: %+v", i, seq[i], par[i], alone)
		}
	}
}

// TestChaosRunnerSharesVerifierMemo runs bench seed 1's 64 plans on one
// runner at width 1. The runner's memo must serve every repeated
// executable state of the sweep: a memo per case misses 172 times on these
// plans, the shared memo 16 times (8 distinct states, two memoized
// checkers each). A case run again on the same runner misses nothing.
func TestChaosRunnerSharesVerifierMemo(t *testing.T) {
	plans := DerivePlans(64, 1+64<<10)
	var r chaosRunner
	for _, plan := range plans {
		if res := r.RunCase(plan); !res.Pass {
			t.Fatalf("case %d failed: %+v", plan.Case, res)
		}
	}
	const wantHits, wantMisses = 290, 16
	hits, misses, clears := r.memo.Stats()
	if hits != wantHits || misses != wantMisses || clears != 0 {
		t.Errorf("memo Stats() = %d hits, %d misses, %d clears; want %d, %d, 0",
			hits, misses, clears, wantHits, wantMisses)
	}
	if res := r.RunCase(plans[0]); !res.Pass {
		t.Fatalf("case 0 rerun failed: %+v", res)
	}
	if _, again, _ := r.memo.Stats(); again != misses {
		t.Errorf("rerunning case 0 added %d misses, want 0", again-misses)
	}
}
