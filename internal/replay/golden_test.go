package replay

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/workload"
)

// TestTable5DigestGolden pins the full replay digest — registers, every
// materialized frame, cycles, TLB counts — of two Table 5 cells that build
// many stage-1 domain tables and, in the guest cell, walk stage 2 on every
// TLB miss. The memory hash moves if any page-table frame lands at a
// different physical address or holds different bytes. The constants were
// computed before stage 1 and stage 2 shared one radix-table
// implementation; if a change is meant to move frames, regenerate with
//
//	go test ./internal/replay -run TestTable5DigestGolden -v
//
// and copy the logged digests.
func TestTable5DigestGolden(t *testing.T) {
	cells := []struct {
		name string
		cfg  workload.DomainSwitchConfig
		want Digest
	}{
		{
			name: "cortex-ttbr128",
			cfg: workload.DomainSwitchConfig{
				Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
				Variant:  workload.VariantLZTTBR, Domains: 128, Iters: 1000, Seed: workload.Table5Seed,
			},
			want: Digest{
				Regs:       "ec12451fa5c005354ead9d4cccf517b79c260e1c14e5129f5e409888d2701ae4",
				PState:     0x600000c9,
				Mem:        "e6e9e83c23172403386b3eae1a6086f5e388b15412c880a7c21b8b5813c23470",
				CycleTotal: 321901, Insns: 29696, Measured: 94407,
				TLBHits: 0x8ece, TLBMiss: 0x8d,
			},
		},
		{
			name: "carmel-guest-ttbr32",
			cfg: workload.DomainSwitchConfig{
				Platform: workload.Platform{Prof: arm64.ProfileCarmel(), Guest: true},
				Variant:  workload.VariantLZTTBR, Domains: 32, Iters: 1000, Seed: workload.Table5Seed,
			},
			want: Digest{
				Regs:       "a5714f94a7c9a64eeea9a02304a6024e63a4b8ec230ea1ef66e1ed7db4db3052",
				PState:     0x600000c9,
				Mem:        "72e69073942d27336455c50352ac421964a6e76015ac4f663353ff87c2bced7b",
				CycleTotal: 3542452, Insns: 28446, Measured: 492962,
				TLBHits: 0x8a50, TLBMiss: 0x2d,
			},
		},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			env, p, err := workload.PrepareDomainSwitch(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := finishDigest(t, env, p, workload.DomainSwitchBudget(c.cfg))
			t.Logf("digest %#v", got)
			if got != c.want {
				t.Errorf("digest moved: %s\n got %#v\nwant %#v", c.want.Delta(got), got, c.want)
			}
		})
	}
}
