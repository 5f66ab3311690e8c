package workload

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
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
			t.Errorf("child %s fork-family audit: %v", name, issues)
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

// forkPointConfigs are a host and a guest cell for the fork-point guards.
func forkPointConfigs() []DomainSwitchConfig {
	cfgs := fleetTestConfigs()
	return []DomainSwitchConfig{cfgs[1], cfgs[3]}
}

// requireForkPanic forks env and requires a panic whose message contains
// want.
func requireForkPanic(t *testing.T, env *Env, want string) {
	t.Helper()
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, want) {
			t.Errorf("%s: Env.Fork recovered %q, want a panic containing %q", env.Platform, r, want)
		}
	}()
	env.Fork()
}

// TestForkRefusesMachineThatRan: a machine forks only at its fork point.
// Once its process has retired an instruction — here 20 traps into the run
// — Env.Fork panics instead of cloning what the run created. (A guest
// cell's first traps are fetch faults that retire nothing; the kernel's
// guard refuses those forks.)
func TestForkRefusesMachineThatRan(t *testing.T) {
	for _, cfg := range forkPointConfigs() {
		env, p, err := PrepareDomainSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Run(p, 20); !errors.Is(err, kernel.ErrTrapBudget) {
			t.Fatalf("%s: run 20 traps: %v", cfg.Platform, err)
		}
		if env.M.CPU.Insns == 0 {
			t.Fatalf("%s: 20 traps retired no instruction", cfg.Platform)
		}
		requireForkPanic(t, env, "has run")
	}
}

// TestForkRefusesEnteredProcess: entering LightZone from Go builds
// per-process module state without retiring an instruction, so the
// module's own guard refuses the fork.
func TestForkRefusesEnteredProcess(t *testing.T) {
	for _, cfg := range forkPointConfigs() {
		env, p, err := PrepareDomainSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.LZ.EnterProcess(env.K, p, true, core.SanTTBR); err != nil {
			t.Fatal(err)
		}
		if n := env.M.CPU.Insns; n != 0 {
			t.Fatalf("%s: EnterProcess retired %d instructions", cfg.Platform, n)
		}
		requireForkPanic(t, env, "process in LightZone")
	}
}

// forkCellConfig is the bench fork-fleet cell: a Cortex TTBR-32 cell of
// 1,000 switches.
func forkCellConfig() DomainSwitchConfig {
	return DomainSwitchConfig{
		Platform: Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  VariantLZTTBR, Domains: 32, Iters: 1000, Seed: 1,
	}
}

// TestZygoteTemplateDeterministic: two publications, each from a fresh
// zygote of one configuration, yield templates of identical shape — the
// same bodies at the same PAs, the same traces per entry PC in the same
// order (reflect.DeepEqual walks the unexported fields) — so a run's
// per-unit host counters repeat at one seed. A child of the second zygote
// adopts blocks and traces, so neither template is empty.
func TestZygoteTemplateDeterministic(t *testing.T) {
	freshZygotes(t)
	cfg := forkCellConfig()
	publish := func() *cpu.CodeTemplate {
		ResetZygotes()
		if _, err := runForked(cfg); err != nil {
			t.Fatal(err)
		}
		zygoteMu.Lock()
		z := zygotes[zygoteKey(cfg)]
		zygoteMu.Unlock()
		tmpl := z.tmpl.Load()
		if tmpl == nil {
			t.Fatal("a finished child published no template")
		}
		return tmpl
	}
	a, b := publish(), publish()
	if !reflect.DeepEqual(a, b) {
		t.Error("two publications from fresh zygotes differ")
	}
	traces := cpu.ReadTraceStats()
	env, p, err := ForkDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(p, domainSwitchBudget(cfg)); err != nil {
		t.Fatal(err)
	}
	if n, m := env.M.CPU.Stats.CodeAdopted, cpu.ReadTraceStats().Sub(traces).Adopted; n == 0 || m == 0 {
		t.Errorf("a child adopted %d blocks and %d traces from the template, want both", n, m)
	}
}

// TestZygoteChildMakesNoFailedWalks: a child forked after its zygote
// published a code template adopts its traces and runs no walk that
// fails. Every gate's first block, which ends at MSR TTBR0_EL1, is the
// entry of the gate's trace, so no block is left whose walk fails on
// every child alike.
func TestZygoteChildMakesNoFailedWalks(t *testing.T) {
	freshZygotes(t)
	cfg := forkCellConfig()
	if _, err := runForked(cfg); err != nil { // publishes the template
		t.Fatal(err)
	}
	before := cpu.ReadTraceStats()
	if _, err := runForked(cfg); err != nil {
		t.Fatal(err)
	}
	d := cpu.ReadTraceStats().Sub(before)
	t.Logf("child: %d traces adopted, %d stitched, %d failed walks", d.Adopted, d.Stitched, d.StitchFailed)
	if d.StitchFailed != 0 || d.Adopted == 0 {
		t.Errorf("child made %d failed walks and adopted %d traces, want 0 and some", d.StitchFailed, d.Adopted)
	}
}

// BenchmarkZygoteFork measures the fork alone: Env.Fork of the fork-fleet
// cell's prepared zygote, which copies its frames, clones its vCPU,
// hypervisor and kernel, and rebuilds its module chain (DESIGN.md §14).
func BenchmarkZygoteFork(b *testing.B) {
	zyg, _, err := PrepareDomainSwitch(forkCellConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zyg.Fork()
	}
}

// BenchmarkForkCell measures one short traced machine end to end: fork the
// fork-fleet cell from its zygote and run it to exit. Each child fills its
// code caches from the template the warm-up child published; the custom
// metrics count, per child, the blocks it built and adopted, the traces it
// stitched and adopted, and its stitch walks that failed.
func BenchmarkForkCell(b *testing.B) {
	cfg := forkCellConfig()
	var built, adopted uint64
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
		built += env.M.CPU.Stats.CodeBlocks
		adopted += env.M.CPU.Stats.CodeAdopted
	}
	run() // cold-prepares the zygote and publishes its template
	built, adopted = 0, 0
	traces := cpu.ReadTraceStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	ts := cpu.ReadTraceStats().Sub(traces)
	n := float64(b.N)
	b.ReportMetric(float64(built)/n, "built-blocks/op")
	b.ReportMetric(float64(adopted)/n, "adopted-blocks/op")
	b.ReportMetric(float64(ts.Stitched)/n, "stitched-traces/op")
	b.ReportMetric(float64(ts.Adopted)/n, "adopted-traces/op")
	b.ReportMetric(float64(ts.StitchFailed)/n, "failed-walks/op")
}
