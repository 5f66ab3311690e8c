package workload

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lightzone/internal/arm64"
	"lightzone/internal/kernel"
)

func TestFleetRunSequentialStopsAtFirstError(t *testing.T) {
	var visited []int
	err := NewFleet(1).Run(5, func(i int) error {
		visited = append(visited, i)
		if i == 2 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2 failed" {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(visited, []int{0, 1, 2}) {
		t.Errorf("sequential sweep visited %v", visited)
	}
}

func TestFleetRunParallelCoversAllCellsAndReportsLowestError(t *testing.T) {
	const n = 37
	var counts [n]atomic.Int64
	err := NewFleet(8).Run(n, func(i int) error {
		counts[i].Add(1)
		if i == 30 || i == 11 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	// The lowest-indexed failure wins regardless of which worker hit it
	// first — the same error the sequential sweep would have returned.
	if err == nil || err.Error() != "cell 11 failed" {
		t.Fatalf("err = %v", err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("cell %d ran %d times", i, c)
		}
	}
}

// TestFleetNestedRunSharesWorkerBudget checks that a cell running an inner
// sweep through the same fleet (the FigureSweep -> PrewarmGates shape)
// draws extra workers from the shared slot pool: peak concurrency stays
// bounded by Workers instead of multiplying per nesting level, and nesting
// cannot deadlock because slot acquisition is non-blocking.
func TestFleetNestedRunSharesWorkerBudget(t *testing.T) {
	const workers = 4
	f := NewFleet(workers)
	var inFlight, peak atomic.Int64
	err := f.Run(workers, func(int) error {
		// The outer cell does no work of its own beyond the inner sweep, so
		// only the inner cells count as busy workers.
		return f.Run(workers, func(int) error {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeded the %d-worker budget", p, workers)
	}
}

func TestFleetRunZeroCells(t *testing.T) {
	if err := NewFleet(4).Run(0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// fleetTestConfigs is a small cross-variant slice of the Table 5 matrix,
// cheap enough to measure twice in one test.
func fleetTestConfigs() []DomainSwitchConfig {
	cortex := Platform{Prof: arm64.ProfileCortexA55()}
	carmelGuest := Platform{Prof: arm64.ProfileCarmel(), Guest: true}
	return []DomainSwitchConfig{
		{Platform: cortex, Variant: VariantLZPAN, Domains: 1, Iters: 300, Seed: Table5Seed},
		{Platform: cortex, Variant: VariantLZTTBR, Domains: 8, Iters: 300, Seed: Table5Seed},
		{Platform: cortex, Variant: VariantWatchpoint, Domains: 3, Iters: 300, Seed: Table5Seed},
		{Platform: carmelGuest, Variant: VariantLZTTBR, Domains: 4, Iters: 300, Seed: Table5Seed},
		{Platform: cortex, Variant: VariantLwC, Domains: 4, Iters: 300, Seed: Table5Seed},
		{Platform: cortex, Variant: VariantLZTTBR, Domains: 32, Iters: 300, Seed: Table5Seed},
	}
}

// TestFleetSweepBitIdenticalToSequential is the fleet's core contract:
// sharding measurement cells across workers must not change a single
// measured value, TotalCycles included.
func TestFleetSweepBitIdenticalToSequential(t *testing.T) {
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
	for _, workers := range []int{4, 8} {
		par := measure(NewFleet(workers))
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: results diverged from sequential\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
}

// TestCrossMachineIsolationInterleaved runs two machines' benchmark
// processes in alternating trap-budget slices on one goroutine and checks
// that every per-machine observable — emulated cycles, pipeline stats, TLB
// contents and intern tables, decode cache — matches an undisturbed solo
// run exactly. Any cross-machine state would skew at least one counter.
func TestCrossMachineIsolationInterleaved(t *testing.T) {
	cfg := DomainSwitchConfig{
		Platform: Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  VariantLZTTBR, Domains: 8, Iters: 300, Seed: Table5Seed,
	}
	soloRes, soloEnv, err := runDomainSwitch(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	envA, pA, err := prepareDomainSwitch(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	envB, pB, err := prepareDomainSwitch(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(env *Env, p *kernel.Process, done *bool) {
		if *done {
			return
		}
		switch err := env.Run(p, 50); {
		case err == nil:
			*done = true
		case !errors.Is(err, kernel.ErrTrapBudget):
			t.Fatal(err)
		}
	}
	var doneA, doneB bool
	for i := 0; i < 1_000_000 && !(doneA && doneB); i++ {
		step(envA, pA, &doneA)
		step(envB, pB, &doneB)
	}
	if !doneA || !doneB {
		t.Fatal("interleaved runs did not finish")
	}
	for name, pair := range map[string]struct {
		env *Env
		p   *kernel.Process
	}{"A": {envA, pA}, "B": {envB, pB}} {
		env := pair.env
		if pair.p.Killed {
			t.Fatalf("machine %s: killed: %s", name, pair.p.KillMsg)
		}
		got, err := env.Measured()
		if err != nil {
			t.Fatalf("machine %s: %v", name, err)
		}
		if got != soloRes.TotalCycles {
			t.Errorf("machine %s: measured %d cycles, solo %d", name, got, soloRes.TotalCycles)
		}
		c, solo := env.M.CPU, soloEnv.M.CPU
		if *c.Stats != *solo.Stats {
			t.Errorf("machine %s: stats %+v, solo %+v", name, *c.Stats, *solo.Stats)
		}
		if c.TLB.Len() != solo.TLB.Len() || c.TLB.Hits != solo.TLB.Hits ||
			c.TLB.Misses != solo.TLB.Misses || c.TLB.ContextCount() != solo.TLB.ContextCount() {
			t.Errorf("machine %s: TLB (len=%d hits=%d misses=%d ctx=%d), solo (len=%d hits=%d misses=%d ctx=%d)",
				name, c.TLB.Len(), c.TLB.Hits, c.TLB.Misses, c.TLB.ContextCount(),
				solo.TLB.Len(), solo.TLB.Hits, solo.TLB.Misses, solo.TLB.ContextCount())
		}
		if c.DecodeCacheLen() != solo.DecodeCacheLen() {
			t.Errorf("machine %s: %d cached blocks, solo %d", name, c.DecodeCacheLen(), solo.DecodeCacheLen())
		}
		if c.Cycles != solo.Cycles || c.Insns != solo.Insns {
			t.Errorf("machine %s: total %d cycles / %d insns, solo %d / %d",
				name, c.Cycles, c.Insns, solo.Cycles, solo.Insns)
		}
	}
}

// TestCrossMachineIsolationConcurrent runs the same cell on four machines
// simultaneously (meaningful under -race: any shared mutable state in the
// emulator would trip the detector) and checks all results and pipeline
// counters against a solo run.
func TestCrossMachineIsolationConcurrent(t *testing.T) {
	cfg := DomainSwitchConfig{
		Platform: Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  VariantLZTTBR, Domains: 8, Iters: 300, Seed: Table5Seed,
	}
	soloRes, soloEnv, err := runDomainSwitch(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		res DomainSwitchResult
		env *Env
	}
	cells, err := fleetMap(NewFleet(4), 4, func(int) (cell, error) {
		res, env, err := runDomainSwitch(cfg, nil)
		return cell{res, env}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.res.TotalCycles != soloRes.TotalCycles || c.res.AvgCycles != soloRes.AvgCycles {
			t.Errorf("machine %d: %d cycles (avg %.2f), solo %d (avg %.2f)",
				i, c.res.TotalCycles, c.res.AvgCycles, soloRes.TotalCycles, soloRes.AvgCycles)
		}
		if *c.env.M.CPU.Stats != *soloEnv.M.CPU.Stats {
			t.Errorf("machine %d: stats %+v, solo %+v", i, *c.env.M.CPU.Stats, *soloEnv.M.CPU.Stats)
		}
		if c.env.M.CPU.TLB.Len() != soloEnv.M.CPU.TLB.Len() {
			t.Errorf("machine %d: TLB len %d, solo %d", i, c.env.M.CPU.TLB.Len(), soloEnv.M.CPU.TLB.Len())
		}
		if c.env.M.CPU.DecodeCacheLen() != soloEnv.M.CPU.DecodeCacheLen() {
			t.Errorf("machine %d: %d cached blocks, solo %d",
				i, c.env.M.CPU.DecodeCacheLen(), soloEnv.M.CPU.DecodeCacheLen())
		}
	}
}

// TestFleetTable5CellEnumeration pins the sweep's cell order to the
// historical sequential emission order lzbench prints.
func TestFleetTable5CellEnumeration(t *testing.T) {
	cells := Table5Cells(100)
	// 3 platforms x (6 LightZone cells + 3 watchpoint cells for d in {1,2,3}).
	if len(cells) != 3*9 {
		t.Fatalf("got %d cells", len(cells))
	}
	first := []struct {
		variant Variant
		domains int
	}{
		{VariantWatchpoint, 1}, {VariantLZPAN, 1},
		{VariantWatchpoint, 2}, {VariantLZTTBR, 2},
		{VariantWatchpoint, 3}, {VariantLZTTBR, 3},
		{VariantLZTTBR, 32}, {VariantLZTTBR, 64}, {VariantLZTTBR, 128},
	}
	for i, want := range first {
		if cells[i].PlatformName != "Carmel Host" || cells[i].Variant != want.variant || cells[i].Domains != want.domains {
			t.Errorf("cell %d = %s/%s/%d, want Carmel Host/%s/%d",
				i, cells[i].PlatformName, cells[i].Variant, cells[i].Domains, want.variant, want.domains)
		}
	}
	if cells[9].PlatformName != "Carmel Guest" || cells[18].PlatformName != "Cortex" {
		t.Errorf("platform grouping wrong: %s / %s", cells[9].PlatformName, cells[18].PlatformName)
	}
}

// TestPrewarmGatesMatchesLazyPath checks the fleet prewarm fills the caches
// with exactly the values the lazy path would have measured.
func TestPrewarmGatesMatchesLazyPath(t *testing.T) {
	plat := Platform{Prof: arm64.ProfileCortexA55()}
	lazy, err := MeasurePrimitives(plat)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := MeasurePrimitives(plat)
	if err != nil {
		t.Fatal(err)
	}
	const domains = 5
	if err := warm.PrewarmGates(NewFleet(4), []int{domains}); err != nil {
		t.Fatal(err)
	}
	if len(warm.gateCache) != 1 || len(warm.wpCache) != 1 || len(warm.lwcCache) != 1 {
		t.Fatalf("prewarm filled %d/%d/%d cache entries", len(warm.gateCache), len(warm.wpCache), len(warm.lwcCache))
	}
	for name, get := range map[string]func(*Primitives) (float64, error){
		"gate": func(pr *Primitives) (float64, error) { return pr.GatePass(domains) },
		"wp":   func(pr *Primitives) (float64, error) { return pr.WPSwitch(domains) },
		"lwc":  func(pr *Primitives) (float64, error) { return pr.LwCSwitch(domains) },
	} {
		want, err := get(lazy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := get(warm)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: prewarmed %v, lazy %v", name, got, want)
		}
	}
}

// TestPrewarmGatesCoversClampedCounts checks the prewarm warms the keys the
// lazy path consults above the baselines' clamps: after PrewarmGates at 100
// domains, GatePass, WPSwitch and LwCSwitch at 100 measure nothing new.
func TestPrewarmGatesCoversClampedCounts(t *testing.T) {
	pr, err := MeasurePrimitives(Platform{Prof: arm64.ProfileCortexA55()})
	if err != nil {
		t.Fatal(err)
	}
	const domains = 100
	if err := pr.PrewarmGates(NewFleet(2), []int{domains}); err != nil {
		t.Fatal(err)
	}
	cells := func() int { return len(pr.gateCache) + len(pr.wpCache) + len(pr.lwcCache) }
	before := cells()
	for _, get := range []func(int) (float64, error){pr.GatePass, pr.WPSwitch, pr.LwCSwitch} {
		if _, err := get(domains); err != nil {
			t.Fatal(err)
		}
	}
	if n := cells() - before; n != 0 {
		t.Fatalf("measured %d new cells after prewarming %d domains", n, domains)
	}
}
