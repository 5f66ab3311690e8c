package workload

import (
	"reflect"
	"testing"

	"lightzone/internal/arm64"
)

// withZygote runs the test body with the zygote default set, a fresh pool,
// and full restoration afterwards.
func withZygote(t *testing.T, on bool) {
	t.Helper()
	prev := SetZygoteDefault(on)
	ResetZygotes()
	t.Cleanup(func() {
		SetZygoteDefault(prev)
		ResetZygotes()
	})
}

// TestZygoteRunIdenticalToCold: RunDomainSwitch must return byte-identical
// results whether the machine is cold-booted or forked from a zygote, for
// every fleet-suite configuration (all variants, host and guest).
func TestZygoteRunIdenticalToCold(t *testing.T) {
	for _, cfg := range fleetTestConfigs() {
		withZygote(t, false)
		cold, err := RunDomainSwitch(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		withZygote(t, true)
		forks := ZygoteForkCount()
		warm, err := RunDomainSwitch(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if ZygoteForkCount() != forks+1 {
			t.Errorf("%s/%d: zygote default on, but no fork happened", cfg.Variant, cfg.Domains)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%s/%d: forked result differs from cold boot\ncold: %+v\nfork: %+v",
				cfg.Variant, cfg.Domains, cold, warm)
		}
		// A second run forks the SAME zygote (no new cold boot) and must
		// still agree — the chaos engine's re-fork pattern.
		again, err := RunDomainSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, again) {
			t.Errorf("%s/%d: re-fork result drifted: %+v vs %+v", cfg.Variant, cfg.Domains, cold, again)
		}
	}
}

// TestZygoteFleetWidthIdentity: with forking on, sweeping the fleet suite
// at width 1 and width 8 must produce byte-identical results — children of
// one zygote run concurrently, and forks of one zygote are serialized by
// the pool's lock.
func TestZygoteFleetWidthIdentity(t *testing.T) {
	withZygote(t, true)
	cfgs := fleetTestConfigs()
	measure := func(f *Fleet) []DomainSwitchResult {
		out, err := fleetMap(f, len(cfgs), func(i int) (DomainSwitchResult, error) {
			return RunDomainSwitch(cfgs[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := measure(NewFleet(1))
	par := measure(NewFleet(8))
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("zygote sweep diverged across fleet widths\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestZygotePoolKeying: configs differing in any field get distinct
// zygotes; the same config reuses one.
func TestZygotePoolKeying(t *testing.T) {
	withZygote(t, true)
	base := fleetTestConfigs()[1]
	if _, _, err := ForkDomainSwitch(base); err != nil {
		t.Fatal(err)
	}
	zygoteMu.Lock()
	n1 := len(zygotes)
	zygoteMu.Unlock()
	if _, _, err := ForkDomainSwitch(base); err != nil {
		t.Fatal(err)
	}
	other := base
	other.Seed++
	if _, _, err := ForkDomainSwitch(other); err != nil {
		t.Fatal(err)
	}
	zygoteMu.Lock()
	n2 := len(zygotes)
	zygoteMu.Unlock()
	if n2 != n1+1 {
		t.Errorf("pool grew from %d to %d; want exactly one new zygote for a changed config", n1, n2)
	}
}

// TestZygoteChildrenIsolated: two children of one zygote run to completion
// without disturbing each other or the zygote — the zygote itself stays
// runnable and cold-identical afterwards.
func TestZygoteChildrenIsolated(t *testing.T) {
	withZygote(t, true)
	cfg := fleetTestConfigs()[1]
	envA, pA, err := ForkDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	envB, pB, err := ForkDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := domainSwitchBudget(cfg)
	if err := envA.Run(pA, budget); err != nil {
		t.Fatal(err)
	}
	if err := envB.Run(pB, budget); err != nil {
		t.Fatal(err)
	}
	mA, err := envA.Measured()
	if err != nil {
		t.Fatal(err)
	}
	mB, err := envB.Measured()
	if err != nil {
		t.Fatal(err)
	}
	if mA != mB {
		t.Errorf("sibling children measured %d vs %d cycles", mA, mB)
	}
	for name, env := range map[string]*Env{"A": envA, "B": envB} {
		if issues := env.M.PM.AuditCOW(); len(issues) != 0 {
			t.Errorf("child %s COW audit: %v", name, issues)
		}
	}
	// The zygote was never run: a third fork still measures the same.
	envC, pC, err := ForkDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := envC.Run(pC, budget); err != nil {
		t.Fatal(err)
	}
	mC, err := envC.Measured()
	if err != nil {
		t.Fatal(err)
	}
	if mC != mA {
		t.Errorf("fork after sibling runs measured %d, want %d (zygote dirtied)", mC, mA)
	}
}

// BenchmarkForkCell measures one short traced machine end to end: fork a
// Cortex TTBR-32 cell of 1,000 switches from its zygote and run it to exit.
// Cache warm-up in the fresh child — block build, stitching — and Go
// allocation dominate, so allocs/op tracks the trace compiler's build cost.
func BenchmarkForkCell(b *testing.B) {
	cfg := DomainSwitchConfig{
		Platform: Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  VariantLZTTBR, Domains: 32, Iters: 1000, Seed: 1,
	}
	run := func() {
		env, p, err := ForkDomainSwitch(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !env.M.CPU.TracesEnabled() {
			b.Fatal("forked cell runs untraced")
		}
		if err := env.Run(p, domainSwitchBudget(cfg)); err != nil {
			b.Fatal(err)
		}
		if p.Killed {
			b.Fatalf("cell killed: %s", p.KillMsg)
		}
	}
	run() // cold-prepares the zygote outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
