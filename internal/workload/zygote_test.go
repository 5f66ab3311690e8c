package workload

import (
	"fmt"
	"reflect"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
)

// freshZygotes empties the zygote pool for the test body and again after it.
func freshZygotes(t *testing.T) {
	t.Helper()
	ResetZygotes()
	t.Cleanup(ResetZygotes)
}

// runForked is RunDomainSwitch on a child of the config's zygote.
func runForked(cfg DomainSwitchConfig) (DomainSwitchResult, error) {
	res := DomainSwitchResult{Config: cfg}
	env, p, err := ForkDomainSwitch(cfg)
	if err != nil {
		return res, err
	}
	if err := env.Run(p, domainSwitchBudget(cfg)); err != nil {
		return res, err
	}
	if p.Killed {
		return res, fmt.Errorf("benchmark killed: %s", p.KillMsg)
	}
	if res.TotalCycles, err = env.Measured(); err != nil {
		return res, err
	}
	res.AvgCycles = float64(res.TotalCycles) / float64(cfg.Iters)
	return res, nil
}

// TestZygoteRunIdenticalToCold: a cold-booted RunDomainSwitch and a run on
// a zygote fork must return byte-identical results for every fleet-suite
// configuration (all variants, host and guest).
func TestZygoteRunIdenticalToCold(t *testing.T) {
	freshZygotes(t)
	for _, cfg := range fleetTestConfigs() {
		cold, err := RunDomainSwitch(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		forks := ZygoteForkCount()
		warm, err := runForked(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if ZygoteForkCount() != forks+1 {
			t.Errorf("%s/%d: ForkDomainSwitch handed out %d children, want 1",
				cfg.Variant, cfg.Domains, ZygoteForkCount()-forks)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%s/%d: forked result differs from cold boot\ncold: %+v\nfork: %+v",
				cfg.Variant, cfg.Domains, cold, warm)
		}
		// A second run forks the SAME zygote (no new cold boot) and must
		// still agree — the chaos engine's re-fork pattern.
		again, err := runForked(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, again) {
			t.Errorf("%s/%d: re-fork result drifted: %+v vs %+v", cfg.Variant, cfg.Domains, cold, again)
		}
	}
}

// TestZygoteFleetWidthIdentity: forking every fleet-suite cell at width 1
// and width 8 must produce byte-identical results, and match cold boots —
// children of one zygote run concurrently, and forks of one zygote are
// serialized by the pool's lock.
func TestZygoteFleetWidthIdentity(t *testing.T) {
	freshZygotes(t)
	cfgs := fleetTestConfigs()
	measure := func(f *Fleet, run func(DomainSwitchConfig) (DomainSwitchResult, error)) []DomainSwitchResult {
		out, err := fleetMap(f, len(cfgs), func(i int) (DomainSwitchResult, error) {
			return run(cfgs[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := measure(NewFleet(1), RunDomainSwitch)
	for _, width := range []int{1, 8} {
		if forked := measure(NewFleet(width), runForked); !reflect.DeepEqual(cold, forked) {
			t.Errorf("zygote sweep at width %d diverged from cold boots\ncold: %+v\nfork: %+v", width, cold, forked)
		}
	}
}

// TestZygoteForkTakesCurrentPipeline: a child runs the pipeline a cold boot
// of its config would run now — the process defaults at fork time plus the
// config's Disable* fields — never the one its zygote was booted under.
// The defaults flip between forks of one pooled zygote.
func TestZygoteForkTakesCurrentPipeline(t *testing.T) {
	freshZygotes(t)
	fast, decode, trace, audit := cpu.HostFastpathDefault(), cpu.DecodeCacheDefault(), cpu.TraceDefault(), cpu.ProofAuditDefault()
	setAll := func(on bool) {
		cpu.SetHostFastpathDefault(on)
		cpu.SetDecodeCacheDefault(on)
		cpu.SetTraceDefault(on)
		cpu.SetProofAuditDefault(!on)
	}
	t.Cleanup(func() {
		cpu.SetHostFastpathDefault(fast)
		cpu.SetDecodeCacheDefault(decode)
		cpu.SetTraceDefault(trace)
		cpu.SetProofAuditDefault(audit)
	})
	type pipeline struct{ decode, fast, trace, audit bool }
	of := func(env *Env) pipeline {
		c := env.M.CPU
		return pipeline{c.DecodeCacheEnabled(), c.HostFastpathsEnabled(), c.TracesEnabled(), c.ProofAuditEnabled()}
	}
	base := fleetTestConfigs()[1]
	noDecode, noFast := base, base
	noDecode.DisableDecodeCache = true
	noFast.DisableHostFastpaths = true
	for _, on := range []bool{true, false, true} {
		setAll(on)
		for name, cfg := range map[string]DomainSwitchConfig{"base": base, "nodecode": noDecode, "nofastpath": noFast} {
			cold, _, err := PrepareDomainSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			child, _, err := ForkDomainSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := of(child), of(cold); got != want {
				t.Errorf("defaults on=%v, %s: child pipeline %+v, cold boot %+v", on, name, got, want)
			}
			if name == "base" && of(child).decode != on {
				t.Errorf("defaults on=%v: child decode cache %v ignores the defaults", on, of(child).decode)
			}
		}
	}
}

// TestZygotePoolKeying: configs differing in any field get distinct
// zygotes; the same config reuses one.
func TestZygotePoolKeying(t *testing.T) {
	freshZygotes(t)
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
	freshZygotes(t)
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
