package workload

import (
	"testing"

	"lightzone/internal/baseline"
	"lightzone/internal/core"
)

// TestTable1Claims encodes the paper's comparison table as executable
// assertions: LightZone is the row with scalability (2^16), efficiency
// (no trap on switch), security, and pre-compiled-binary support all
// satisfied, against the baselines' limitations.
func TestTable1Claims(t *testing.T) {
	plat := AllPlatforms()[2] // Cortex host: the fastest to measure

	t.Run("scalability", func(t *testing.T) {
		if core.MaxPageTables != 1<<16 {
			t.Errorf("LightZone domain limit = %d, paper claims 2^16", core.MaxPageTables)
		}
		if baseline.MaxWatchpointDomains != 16 {
			t.Errorf("watchpoint limit = %d, paper says 16", baseline.MaxWatchpointDomains)
		}
		// 128 domains work under LightZone, 17 fail under Watchpoint.
		if _, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 128, Iters: 50, Seed: 1}); err != nil {
			t.Errorf("128 LightZone domains: %v", err)
		}
		if _, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantWatchpoint, Domains: 17, Iters: 50, Seed: 1}); err == nil {
			t.Error("17 watchpoint domains accepted")
		}
	})

	t.Run("efficiency", func(t *testing.T) {
		// A LightZone switch must be far below one syscall trap (it
		// never enters the kernel); the watchpoint baseline must be
		// above one trap (it always does).
		sysCost, err := coldSyscall(plat, false)
		if err != nil {
			t.Fatal(err)
		}
		lz, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 2, Iters: 500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wp, err := RunDomainSwitch(DomainSwitchConfig{Platform: plat, Variant: VariantWatchpoint, Domains: 2, Iters: 500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if lz.AvgCycles >= sysCost {
			t.Errorf("LightZone switch (%.0f) not below a syscall (%.0f)", lz.AvgCycles, sysCost)
		}
		if wp.AvgCycles <= sysCost {
			t.Errorf("watchpoint switch (%.0f) not above a syscall (%.0f)", wp.AvgCycles, sysCost)
		}
	})

	t.Run("security-and-pcb", func(t *testing.T) {
		// The §7.2 battery doubles as the security/PCB evidence: the
		// attack binaries are "pre-compiled" (raw instruction words, no
		// compiler cooperation) and every attack is blocked.
		results, err := RunPentest(plat)
		if err != nil {
			t.Fatal(err)
		}
		blocked := 0
		for _, r := range results {
			if r.Blocked {
				blocked++
			}
		}
		if blocked != 6 {
			t.Errorf("blocked %d/6 attacks", blocked)
		}
	})
}
