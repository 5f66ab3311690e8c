package workload

import (
	"runtime/debug"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/baseline"
)

// paperTable5 holds the published Table 5 cells: average cycles of
// switches (with secure call gate) between distinct numbers of protected
// domains.
type t5Row struct {
	platform Platform
	variant  Variant
	domains  int
	want     float64
	tolPct   float64
}

func carmel() *arm64.Profile { return arm64.ProfileCarmel() }
func cortex() *arm64.Profile { return arm64.ProfileCortexA55() }

func TestTable5MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 sweep is slow")
	}
	rows := []t5Row{
		// Carmel Host row.
		{Platform{carmel(), false}, VariantLZPAN, 1, 22, 80},
		{Platform{carmel(), false}, VariantLZTTBR, 2, 477, 15},
		{Platform{carmel(), false}, VariantLZTTBR, 128, 490, 15},
		{Platform{carmel(), false}, VariantWatchpoint, 1, 6759, 12},
		// Carmel Guest row.
		{Platform{carmel(), true}, VariantLZTTBR, 2, 495, 15},
		{Platform{carmel(), true}, VariantLZTTBR, 128, 507, 15},
		{Platform{carmel(), true}, VariantWatchpoint, 1, 2710, 12},
		// Cortex row.
		{Platform{cortex(), false}, VariantLZPAN, 1, 11, 100},
		{Platform{cortex(), false}, VariantLZTTBR, 2, 59, 35},
		{Platform{cortex(), false}, VariantLZTTBR, 128, 82, 35},
		{Platform{cortex(), false}, VariantWatchpoint, 1, 915, 12},
	}
	for _, row := range rows {
		res, err := RunDomainSwitch(DomainSwitchConfig{
			Platform: row.platform, Variant: row.variant,
			Domains: row.domains, Iters: 2000, Seed: 42,
		})
		if err != nil {
			t.Errorf("%v/%v/%d: %v", row.platform, row.variant, row.domains, err)
			continue
		}
		lo := row.want * (1 - row.tolPct/100)
		hi := row.want * (1 + row.tolPct/100)
		if res.AvgCycles < lo || res.AvgCycles > hi {
			t.Errorf("%v %v %d domains: %.1f cycles, paper %.0f (tol ±%.0f%%)",
				row.platform, row.variant, row.domains, res.AvgCycles, row.want, row.tolPct)
		}
	}
}

// Structural claims of Table 5 that must hold on every platform.
func TestTable5Ordering(t *testing.T) {
	for _, plat := range AllPlatforms() {
		pan, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantLZPAN, Domains: 1, Iters: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ttbr2, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 2, Iters: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ttbr128, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 128, Iters: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		wp, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantWatchpoint, Domains: 2, Iters: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !(pan.AvgCycles < ttbr2.AvgCycles && ttbr2.AvgCycles < wp.AvgCycles) {
			t.Errorf("%v: ordering violated: pan=%.1f ttbr=%.1f wp=%.1f",
				plat, pan.AvgCycles, ttbr2.AvgCycles, wp.AvgCycles)
		}
		if ttbr128.AvgCycles < ttbr2.AvgCycles {
			t.Errorf("%v: no TLB-pressure growth: 2 domains %.1f vs 128 domains %.1f",
				plat, ttbr2.AvgCycles, ttbr128.AvgCycles)
		}
	}
}

// Scalability wall: the watchpoint baseline cannot express more than 16
// domains (Table 1), while LightZone handles 128 in the same benchmark.
func TestWatchpointSixteenDomainWall(t *testing.T) {
	plat := Platform{cortex(), false}
	_, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantWatchpoint, Domains: 17, Iters: 10, Seed: 1})
	if err == nil {
		t.Fatal("17 watchpoint domains accepted")
	}
	if _, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantWatchpoint, Domains: baseline.MaxWatchpointDomains, Iters: 100, Seed: 1}); err != nil {
		t.Errorf("16 watchpoint domains rejected: %v", err)
	}
	if _, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 128, Iters: 100, Seed: 1}); err != nil {
		t.Errorf("128 LightZone domains rejected: %v", err)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestTrapPathAllocationsFlat: on the cells whose loop traps on every
// switch — the watchpoint and lwC baselines' syscalls, and the gate
// traps of a PAN and a guest TTBR cell — a whole cell (boot, preparation,
// run) allocates as often at 4,000 switches as at 2,000. A trap round trip
// allocates nothing: the delivered Exit is the vCPU's own and the
// kernel's scheduling World is a value.
func TestTrapPathAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts jitter under -race: its sync.Pool drops items at random")
	}
	cortex := Platform{Prof: arm64.ProfileCortexA55()}
	carmel := Platform{Prof: arm64.ProfileCarmel()}
	guest := Platform{Prof: arm64.ProfileCarmel(), Guest: true}
	cells := []DomainSwitchConfig{
		{Platform: cortex, Variant: VariantWatchpoint, Domains: 3},
		{Platform: cortex, Variant: VariantLwC, Domains: 3},
		{Platform: carmel, Variant: VariantLZPAN, Domains: 1},
		{Platform: guest, Variant: VariantLZTTBR, Domains: 32},
	}
	// A collection inside the measured window adds a few runtime
	// allocations that follow heap timing, not the number of traps, so
	// the count is taken with the collector paused.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, cfg := range cells {
		allocs := func(iters int) float64 {
			cfg := cfg
			cfg.Iters, cfg.Seed = iters, Table5Seed
			return testing.AllocsPerRun(1, func() {
				if _, err := RunDomainSwitch(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(2000), allocs(4000); a != b {
			t.Errorf("%s %s-%d: %v allocations at 2,000 switches, %v at 4,000",
				cfg.Platform, cfg.Variant, cfg.Domains, a, b)
		} else {
			t.Logf("%s %s-%d: %v allocations", cfg.Platform, cfg.Variant, cfg.Domains, a)
		}
	}
}
