package workload

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
)

// TestTable5CycleIdentityCacheOnOff runs Table 5 configurations through the
// full {host fastpaths, decode cache} matrix and requires the measured
// emulated cycles to be bit-identical in every cell: both layers elide
// host-side work only.
func TestTable5CycleIdentityCacheOnOff(t *testing.T) {
	cases := []struct {
		variant Variant
		domains int
	}{
		{VariantLZPAN, 1},
		{VariantLZTTBR, 2},
		{VariantLZTTBR, 8},
		{VariantWatchpoint, 2},
	}
	modes := []struct {
		name             string
		noDecode, noFast bool
	}{
		{"nodecode", true, false},
		{"nofastpath", false, true},
		{"neither", true, true},
	}
	for _, plat := range []Platform{
		{Prof: arm64.ProfileCarmel()},
		{Prof: arm64.ProfileCarmel(), Guest: true},
	} {
		for _, tc := range cases {
			cfg := DomainSwitchConfig{
				Platform: plat, Variant: tc.variant, Domains: tc.domains,
				Iters: 300, Seed: 42,
			}
			base, err := RunDomainSwitch(cfg)
			if err != nil {
				t.Fatalf("%v %v/%d baseline: %v", plat, tc.variant, tc.domains, err)
			}
			for _, m := range modes {
				c := cfg
				c.DisableDecodeCache = m.noDecode
				c.DisableHostFastpaths = m.noFast
				got, err := RunDomainSwitch(c)
				if err != nil {
					t.Fatalf("%v %v/%d %s: %v", plat, tc.variant, tc.domains, m.name, err)
				}
				if got.TotalCycles != base.TotalCycles {
					t.Errorf("%v %v/%d: cycles differ with %s (%d) vs all-on (%d)",
						plat, tc.variant, tc.domains, m.name, got.TotalCycles, base.TotalCycles)
				}
			}
		}
	}
}

// TestPipelineInspectionCounters checks the lzinspect probe: a hot
// domain-switch run must be overwhelmingly served from the decode cache and
// record the invalidations the module performed.
func TestPipelineInspectionCounters(t *testing.T) {
	rep, err := RunPipelineInspection(Platform{Prof: arm64.ProfileCarmel()}, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheEnabled {
		t.Error("decode cache unexpectedly disabled")
	}
	s := rep.Stats
	if s.CodeHits == 0 || s.CodeMisses == 0 || rep.CachedBlocks == 0 {
		t.Errorf("implausible decode-cache counters: %+v, %d blocks", s, rep.CachedBlocks)
	}
	if s.CodeHits < 10*s.CodeMisses {
		t.Errorf("hot run should hit the decode cache >90%%: %d hits / %d misses",
			s.CodeHits, s.CodeMisses)
	}
	if s.TLBHits == 0 {
		t.Error("no TLB hits recorded in shared stats")
	}
	if s.CodeInvalidations == 0 {
		t.Error("sanitizer/lz_prot flows recorded no code invalidations")
	}
	if rep.TraceSummary == "" {
		t.Error("empty trace summary")
	}
}

// BenchmarkGateSwitchHost measures the host wall-clock of the full TTBR
// call-gate microbenchmark with the decoded-block cache on and off, and of
// a 128-domain Cortex cell whose domains all stay resident in the host
// translation caches (micro-TLBs and context memos) across switches.
func BenchmarkGateSwitchHost(b *testing.B) {
	carmel8 := DomainSwitchConfig{
		Platform: Platform{Prof: arm64.ProfileCarmel()},
		Variant:  VariantLZTTBR, Domains: 8, Iters: 500, Seed: 42,
	}
	carmel8Off := carmel8
	carmel8Off.DisableDecodeCache = true
	for _, bc := range []struct {
		name string
		cfg  DomainSwitchConfig
	}{
		{"cache-on", carmel8},
		{"cache-off", carmel8Off},
		{"cortex-ttbr128", DomainSwitchConfig{
			Platform: Platform{Prof: arm64.ProfileCortexA55()},
			Variant:  VariantLZTTBR, Domains: 128, Iters: 10_000, Seed: 42,
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunDomainSwitch(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMicroTLBDHitRateManyDomains pins the D-side micro-TLB's hit-rate floor
// on cells whose domains all stay resident: every call-gate crossing retags
// TTBR0, so a D side sized for a handful of domains evicts the data pages
// of the ones it left and misses on the way back. The counts repeat
// exactly for a given config.
func TestMicroTLBDHitRateManyDomains(t *testing.T) {
	for _, cfg := range []DomainSwitchConfig{
		{Platform: Platform{Prof: arm64.ProfileCortexA55()}, Variant: VariantLZTTBR, Domains: 128},
		{Platform: Platform{Prof: arm64.ProfileCarmel(), Guest: true}, Variant: VariantLZTTBR, Domains: 32},
	} {
		cfg.Iters, cfg.Seed = 10_000, 1
		env, p, err := PrepareDomainSwitch(cfg)
		if err != nil {
			t.Fatalf("%v %v-%d: %v", cfg.Platform, cfg.Variant, cfg.Domains, err)
		}
		if err := env.Run(p, DomainSwitchBudget(cfg)); err != nil || p.Killed {
			t.Fatalf("%v %v-%d: %v (killed: %q)", cfg.Platform, cfg.Variant, cfg.Domains, err, p.KillMsg)
		}
		_, _, dHits, dMisses := env.M.CPU.MicroTLBStats()
		rate := float64(dHits) / float64(dHits+dMisses)
		t.Logf("%v %v-%d: D-side %d hits, %d misses, rate %.4f",
			cfg.Platform, cfg.Variant, cfg.Domains, dHits, dMisses, rate)
		if rate < 0.95 {
			t.Errorf("%v %v-%d: D-side micro-TLB hit rate %.4f, want >= 0.95",
				cfg.Platform, cfg.Variant, cfg.Domains, rate)
		}
	}
}

// TestProofAuditSpanCounts pins the proof audit's span accounting on two
// cells, so a change to the oracle that silently stops opening, finishing
// or abandoning spans fails here, not only one that diverges. Both cells
// enter stitched traces, so the counts cover block and trace spans. The
// counts are deterministic for a config; to regenerate them after a
// deliberate change to the pipeline, run this test with -v and copy the
// logged counts.
func TestProofAuditSpanCounts(t *testing.T) {
	audit := cpu.ProofAuditDefault()
	cpu.SetProofAuditDefault(true)
	t.Cleanup(func() { cpu.SetProofAuditDefault(audit) })
	for _, tc := range []struct {
		cfg  DomainSwitchConfig
		want cpu.ProofAuditStats
	}{
		{DomainSwitchConfig{Platform: Platform{Prof: arm64.ProfileCortexA55()}, Variant: VariantLZTTBR, Domains: 32},
			cpu.ProofAuditStats{Spans: 4440, Finished: 4439, Abandoned: 1}},
		{DomainSwitchConfig{Platform: Platform{Prof: arm64.ProfileCarmel(), Guest: true}, Variant: VariantLZPAN, Domains: 1},
			cpu.ProofAuditStats{Spans: 1031, Finished: 1030, Abandoned: 1}},
	} {
		cfg := tc.cfg
		cfg.Iters, cfg.Seed = 1000, 42
		cpu.ResetProofAudit()
		before := cpu.ReadTraceStats()
		if _, err := RunDomainSwitch(cfg); err != nil {
			t.Fatalf("%v %v-%d: %v", cfg.Platform, cfg.Variant, cfg.Domains, err)
		}
		got := cpu.ReadProofAudit()
		t.Logf("%v %v-%d: %d spans (%d finished, %d abandoned), %d divergences",
			cfg.Platform, cfg.Variant, cfg.Domains, got.Spans, got.Finished, got.Abandoned, got.Divergences)
		if got.Spans != tc.want.Spans || got.Finished != tc.want.Finished ||
			got.Abandoned != tc.want.Abandoned || got.Divergences != 0 {
			t.Errorf("%v %v-%d: %d spans (%d finished, %d abandoned), %d divergences %q; want %d (%d, %d), 0",
				cfg.Platform, cfg.Variant, cfg.Domains, got.Spans, got.Finished, got.Abandoned,
				got.Divergences, got.Details, tc.want.Spans, tc.want.Finished, tc.want.Abandoned)
		}
		if d := cpu.ReadTraceStats().Sub(before); d.Entered == 0 {
			t.Errorf("%v %v-%d: no stitched trace entered; the pin covers block spans only",
				cfg.Platform, cfg.Variant, cfg.Domains)
		}
	}
}
