package workload

import (
	"encoding/json"
	"testing"

	"lightzone/internal/trace"
	"lightzone/internal/verify"
)

func verifyTestPlatform(t *testing.T) Platform {
	t.Helper()
	plats := AllPlatforms()
	if len(plats) == 0 {
		t.Fatal("no platforms")
	}
	return plats[0]
}

// The clean Table 5 configurations must verify with zero findings at every
// mutation chokepoint and after the run.
func TestVerifySweepClean(t *testing.T) {
	results, err := NewFleet(0).VerifySweep(verifyTestPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no verification cells")
	}
	for _, r := range results {
		if r.Findings != 0 {
			t.Errorf("%s: %d findings on a clean machine", r.Name, r.Findings)
		}
		if r.InvariantRuns == 0 {
			t.Errorf("%s: invariant monitor never fired", r.Name)
		}
		if !r.Final.Clean() {
			t.Errorf("%s: final report not clean", r.Name)
		}
	}
}

// Every planted attack must be caught by its designated checker at the
// planted VA; PlantedSweep errors otherwise, so success is mostly asserted
// inside the sweep. The test re-checks the result rows and that all five
// checkers are exercised by the battery.
func TestPlantedSweep(t *testing.T) {
	results, err := NewFleet(0).PlantedSweep(verifyTestPlatform(t), "lightzone")
	if err != nil {
		t.Fatal(err)
	}
	checkers := make(map[string]bool)
	for _, r := range results {
		if !r.Caught {
			t.Errorf("%s: not caught", r.Name)
		}
		if r.VA == 0 {
			t.Errorf("%s: no planted VA recorded", r.Name)
		}
		checkers[r.Checker] = true
	}
	for _, c := range verify.Checkers() {
		if !checkers[c.Name] {
			t.Errorf("battery exercises no attack for checker %s", c.Name)
		}
	}
}

// EnableInvariants must record one KindInvariant trace event per verifier
// run and must not change measured benchmark results: the monitor is
// observation-only.
func TestInvariantMonitorTraceAndNeutrality(t *testing.T) {
	plat := verifyTestPlatform(t)
	cfg := DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 4, Iters: 100, Seed: Table5Seed}

	base, err := RunDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	env, err := NewEnv(plat)
	if err != nil {
		t.Fatal(err)
	}
	rec := env.EnableTrace(4096)
	mon := env.EnableInvariants()
	res, _, err := runDomainSwitch(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Err != nil {
		t.Fatal(mon.Err)
	}
	if mon.Runs == 0 {
		t.Fatal("invariant monitor never fired")
	}
	if mon.Findings != 0 {
		t.Fatalf("%d findings on a clean machine (last report: %+v)", mon.Findings, mon.Last.Findings)
	}
	if res.TotalCycles != base.TotalCycles {
		t.Errorf("invariant monitoring changed measured cycles: %d vs %d", res.TotalCycles, base.TotalCycles)
	}
	events := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindInvariant {
			events++
		}
	}
	if events != mon.Runs {
		t.Errorf("%d KindInvariant trace events, monitor ran %d times", events, mon.Runs)
	}
}

// The verification report must round-trip through JSON with its identifying
// fields intact — the schema lzverify -json and lzinspect -invariants emit.
func TestVerifyReportJSON(t *testing.T) {
	env, _, err := plantedClean(verifyTestPlatform(t), "lightzone")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.RunMachine(env.M, env.LZ)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean machine reported findings: %+v", rep.Findings)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded verify.Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Machine != rep.Machine {
		t.Errorf("machine lost in round trip: %q vs %q", decoded.Machine, rep.Machine)
	}
	if len(decoded.Checkers) != len(verify.Checkers()) {
		t.Errorf("report lists %d checkers, registry has %d", len(decoded.Checkers), len(verify.Checkers()))
	}
	if decoded.Procs != len(env.LZ.Procs()) {
		t.Errorf("report covers %d procs, machine has %d", decoded.Procs, len(env.LZ.Procs()))
	}
}
