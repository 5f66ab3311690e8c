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
// different physical address or holds different bytes.
//
// Each cell carries three pins. want is CaptureDigest's value. legacyRegs
// and legacyMem hash the same state under the full-frame encoding that
// referenceRegs and referenceMem keep; they were computed before stage 1
// and stage 2 shared one radix-table implementation. spRegs is Regs as it
// was while it covered only the stack pointers among the system registers
// (referenceRegs over SP_EL0, SP_EL1 and SP_EL2). A change to the digest's
// own encoding leaves both reference pins alone. If a change is meant to
// move frames, regenerate all of them with
//
//	go test ./internal/replay -run TestTable5DigestGolden -v
//
// and copy the logged digests.
func TestTable5DigestGolden(t *testing.T) {
	cells := []struct {
		name                          string
		cfg                           workload.DomainSwitchConfig
		want                          Digest
		legacyRegs, legacyMem, spRegs string
	}{
		{
			name: "cortex-ttbr128",
			cfg: workload.DomainSwitchConfig{
				Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
				Variant:  workload.VariantLZTTBR, Domains: 128, Iters: 1000, Seed: workload.Table5Seed,
			},
			want: Digest{
				Regs:       "66bf07b93cefc23710de8e200a82a54189f2a78db121edaf89d086040e14922b",
				PState:     0x600000c9,
				Mem:        "0dedb5de33e2ce9425bd3ec3f2a8ec765ba9a999f5655f5b467d78b5f5633f9f",
				CycleTotal: 321901, Insns: 29696, Measured: 94407,
				TLBHits: 0x8ece, TLBMiss: 0x8d,
			},
			legacyRegs: "ec12451fa5c005354ead9d4cccf517b79c260e1c14e5129f5e409888d2701ae4",
			legacyMem:  "e6e9e83c23172403386b3eae1a6086f5e388b15412c880a7c21b8b5813c23470",
			spRegs:     "6e5ef64ca9d4abac902f771e32e079dce7bdb9f4761485bd7c9dda15e194febc",
		},
		{
			name: "carmel-guest-ttbr32",
			cfg: workload.DomainSwitchConfig{
				Platform: workload.Platform{Prof: arm64.ProfileCarmel(), Guest: true},
				Variant:  workload.VariantLZTTBR, Domains: 32, Iters: 1000, Seed: workload.Table5Seed,
			},
			want: Digest{
				Regs:       "8619d8f2f03257ead3c64ecbb08cfa813f1307382ae1b2409bfb8b948942a465",
				PState:     0x600000c9,
				Mem:        "5e667de9c3f32c209eb101a016e0b60b07b94f6c99886a97bfa07c40a481a418",
				CycleTotal: 3542452, Insns: 28446, Measured: 492962,
				TLBHits: 0x8a50, TLBMiss: 0x2d,
			},
			legacyRegs: "a5714f94a7c9a64eeea9a02304a6024e63a4b8ec230ea1ef66e1ed7db4db3052",
			legacyMem:  "72e69073942d27336455c50352ac421964a6e76015ac4f663353ff87c2bced7b",
			spRegs:     "5099a5f0b3de6894bde5550ac75b57467d4428e04e2c3c714b82ea89d85d7147",
		},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			env, p, err := workload.PrepareDomainSwitch(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := finishDigest(t, env, p, workload.DomainSwitchBudget(c.cfg))
			refRegs, refMem := referenceRegs(env.M.CPU), referenceMem(env.M.PM)
			spRegs := referenceRegs(env.M.CPU, arm64.SPEL0, arm64.SPEL1, arm64.SPEL2)
			t.Logf("digest %#v\nreference regs %s mem %s, stack-pointer regs %s", got, refRegs, refMem, spRegs)
			if got != c.want {
				t.Errorf("digest moved: %s\n got %#v\nwant %#v", c.want.Delta(got), got, c.want)
			}
			if refRegs != c.legacyRegs || refMem != c.legacyMem {
				t.Errorf("reference digest moved: got regs %s mem %s, want regs %s mem %s",
					refRegs, refMem, c.legacyRegs, c.legacyMem)
			}
			if spRegs != c.spRegs {
				t.Errorf("stack-pointer reference digest moved: got regs %s, want %s", spRegs, c.spRegs)
			}
		})
	}
}
