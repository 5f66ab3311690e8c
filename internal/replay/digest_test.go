package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
	"lightzone/internal/workload"
)

// referenceRegs is SHA-256 over X0..X30, PC and then the given system
// registers: with none, the register hash before the stack pointers joined
// it; with SP_EL0, SP_EL1 and SP_EL2, the one before the other system
// registers did.
func referenceRegs(c *cpu.VCPU, sys ...arm64.SysReg) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < 31; i++ {
		binary.LittleEndian.PutUint64(b[:], c.R(uint8(i)))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], c.PC)
	h.Write(b[:])
	for _, r := range sys {
		binary.LittleEndian.PutUint64(b[:], c.Sys(r))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceMem is the full-frame memory hash that memDigest replaced:
// SHA-256 over each materialized frame's PA followed by all 4 KB.
func referenceMem(pm *mem.PhysMem) string {
	h := sha256.New()
	var b [8]byte
	pm.VisitFrames(func(pa mem.PA, frame *[mem.PageSize]byte) {
		binary.LittleEndian.PutUint64(b[:], uint64(pa))
		h.Write(b[:])
		h.Write(frame[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestDigestCoversStackPointers: a wrong stack pointer or any other wrong
// system register at exit (a bad write-back in a fast tier, a fork that
// loses a register) must fail every digest-based identity check, so
// changing any one of the 55 moves Regs. The PAN bit of SPSR_EL1 and
// SPSR_EL2 is the exception: a trap after a forced PAN set saves the
// injected bit there, and that case must stay a PAN footprint.
func TestDigestCoversStackPointers(t *testing.T) {
	cfg := workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.VariantLZTTBR, Domains: 4, Iters: 10, Seed: 1,
	}
	env, p, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := finishDigest(t, env, p, workload.DomainSwitchBudget(cfg))
	c := env.M.CPU
	flipped := func(r arm64.SysReg, bits uint64) Digest {
		v := c.Sys(r)
		c.SetSys(r, v^bits)
		defer c.SetSys(r, v)
		return CaptureDigest(c, env.M.PM)
	}
	for r := arm64.SysReg(1); int(r) < arm64.NumSysRegs; r++ {
		if after := flipped(r, 0x10); after.Regs == before.Regs || before.StateEqual(after) {
			t.Errorf("%v changed but the digest did not: %s", r, before.Delta(after))
		}
	}
	for _, r := range []arm64.SysReg{arm64.SPSREL1, arm64.SPSREL2} {
		if after := flipped(r, arm64.PStatePAN); !after.StateEqual(before) {
			t.Errorf("flipping only the PAN bit of %v moved the digest: %s", r, before.Delta(after))
		}
	}
	if again := CaptureDigest(c, env.M.PM); !again.StateEqual(before) {
		t.Errorf("restored system registers digest differently: %s", before.Delta(again))
	}
}

// digestFrames is the number of frames in the small memories below.
const digestFrames = 16

// sparseMem materializes frames 1, 2, zero and 5 of a small memory: two
// sparse frames, the all-zero frame zero and one dense frame.
func sparseMem(t *testing.T, zero uint64) *mem.PhysMem {
	t.Helper()
	pm := mem.NewPhysMem(digestFrames * mem.PageSize)
	write(t, pm, 1*mem.PageSize, []byte{0xaa, 0xbb, 0xcc})
	write(t, pm, 1*mem.PageSize+5*lineSize+63, []byte{1})
	write(t, pm, 2*mem.PageSize+mem.PageSize-1, []byte{7})
	touch(t, pm, zero)
	dense := make([]byte, mem.PageSize)
	rand.New(rand.NewSource(1)).Read(dense)
	write(t, pm, 5*mem.PageSize, dense)
	return pm
}

func write(t testing.TB, pm *mem.PhysMem, pa uint64, b []byte) {
	t.Helper()
	if err := pm.Write(mem.PA(pa), b); err != nil {
		t.Fatal(err)
	}
}

func read(t testing.TB, pm *mem.PhysMem, pa uint64, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := pm.Read(mem.PA(pa), b); err != nil {
		t.Fatal(err)
	}
	return b
}

// touch materializes a frame without writing it.
func touch(t testing.TB, pm *mem.PhysMem, frame uint64) { read(t, pm, frame*mem.PageSize, 1) }

func flip(t testing.TB, pm *mem.PhysMem, pa uint64) {
	b := read(t, pm, pa, 1)
	write(t, pm, pa, []byte{b[0] ^ 0x10})
}

// TestMemDigestSeparatesEdits: every edit that changes a frame's PA set or
// bytes — including ones that keep the non-zero bytes and move only where
// they sit — must change Mem, exactly as it changes the full-frame hash.
func TestMemDigestSeparatesEdits(t *testing.T) {
	base, refBase := memDigest(sparseMem(t, 4)), referenceMem(sparseMem(t, 4))
	edits := []struct {
		name string
		edit func(pm *mem.PhysMem)
	}{
		{"flip byte in set line 0", func(pm *mem.PhysMem) { flip(t, pm, 1*mem.PageSize+1) }},
		{"flip byte in zero line 0", func(pm *mem.PhysMem) { flip(t, pm, 2*mem.PageSize) }},
		{"flip byte in set line 63", func(pm *mem.PhysMem) { flip(t, pm, 2*mem.PageSize+63*lineSize+62) }},
		{"flip byte in zero line 63", func(pm *mem.PhysMem) { flip(t, pm, 1*mem.PageSize+63*lineSize) }},
		{"flip last byte of a line", func(pm *mem.PhysMem) { flip(t, pm, 1*mem.PageSize+5*lineSize+63) }},
		{"flip last byte of a dense line", func(pm *mem.PhysMem) { flip(t, pm, 5*mem.PageSize+10*lineSize+63) }},
		{"flip last byte of the frame", func(pm *mem.PhysMem) { flip(t, pm, 5*mem.PageSize+mem.PageSize-1) }},
		{"clear a line's only byte", func(pm *mem.PhysMem) { write(t, pm, 2*mem.PageSize+mem.PageSize-1, []byte{0}) }},
		{"materialize a zero frame", func(pm *mem.PhysMem) { touch(t, pm, 9) }},
		{"materialize a zero frame first", func(pm *mem.PhysMem) { touch(t, pm, 0) }},
		{"move a line within its frame", func(pm *mem.PhysMem) {
			pa := uint64(1*mem.PageSize + 5*lineSize)
			line := read(t, pm, pa, lineSize)
			write(t, pm, pa, make([]byte, lineSize))
			write(t, pm, pa+lineSize, line)
		}},
		{"move a run of lines within its frame", func(pm *mem.PhysMem) {
			pa := uint64(5 * mem.PageSize)
			lines := read(t, pm, pa, 2*lineSize)
			write(t, pm, pa, make([]byte, 2*lineSize))
			write(t, pm, pa+3*lineSize, lines)
		}},
		{"swap two frames", func(pm *mem.PhysMem) {
			a, b := read(t, pm, 1*mem.PageSize, mem.PageSize), read(t, pm, 2*mem.PageSize, mem.PageSize)
			write(t, pm, 1*mem.PageSize, b)
			write(t, pm, 2*mem.PageSize, a)
		}},
		{"swap sparse and zero frames", func(pm *mem.PhysMem) {
			a := read(t, pm, 1*mem.PageSize, mem.PageSize)
			write(t, pm, 1*mem.PageSize, make([]byte, mem.PageSize))
			write(t, pm, 4*mem.PageSize, a)
		}},
	}
	for _, e := range edits {
		pm := sparseMem(t, 4)
		e.edit(pm)
		if referenceMem(pm) == refBase {
			t.Fatalf("%s: not an edit, the full-frame hash is unchanged", e.name)
		}
		if memDigest(pm) == base {
			t.Errorf("%s: Mem unchanged", e.name)
		}
	}
	// Same frames in the same order, only one PA differs.
	if memDigest(sparseMem(t, 3)) == base {
		t.Error("zero frame at another PA: Mem unchanged")
	}
}

// TestMemDigestForkEqualsColdWrite: the same frames holding the same bytes
// digest equally whether they were reached through a fork of a
// zygote-like parent or written cold.
func TestMemDigestForkEqualsColdWrite(t *testing.T) {
	parent := sparseMem(t, 4)
	child := parent.Fork()
	write(t, child, 1*mem.PageSize+7*lineSize, []byte{9, 9})
	touch(t, child, 9)
	flip(t, child, 5*mem.PageSize+100)

	cold := sparseMem(t, 4)
	write(t, cold, 1*mem.PageSize+7*lineSize, []byte{9, 9})
	touch(t, cold, 9)
	flip(t, cold, 5*mem.PageSize+100)

	if memDigest(child) != memDigest(cold) {
		t.Error("forked and cold-written memories with equal bytes digest differently")
	}
	if memDigest(parent) == memDigest(child) {
		t.Error("child's writes did not move its digest away from the parent's")
	}
	if memDigest(parent) != memDigest(sparseMem(t, 4)) {
		t.Error("child's writes moved the parent's digest")
	}
}

// TestMemDigestAgreesWithReference: over seeded pairs of sparse and dense
// memories, one derived from the other by a random edit or by none,
// memDigest equality must agree with the full-frame hash's in every pair.
func TestMemDigestAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	fill := func(pm *mem.PhysMem, dense bool) {
		for f := uint64(0); f < 4; f++ {
			if rng.Intn(3) == 0 {
				continue
			}
			touch(t, pm, f*2)
			if dense {
				b := make([]byte, mem.PageSize)
				rng.Read(b)
				write(t, pm, f*2*mem.PageSize, b)
				continue
			}
			for n := rng.Intn(6); n > 0; n-- {
				write(t, pm, f*2*mem.PageSize+uint64(rng.Intn(mem.PageSize)), []byte{byte(1 + rng.Intn(255))})
			}
		}
	}
	randPA := func() uint64 { return uint64(rng.Intn(digestFrames * mem.PageSize)) }
	edits := []func(pm *mem.PhysMem){
		func(pm *mem.PhysMem) {}, // none
		func(pm *mem.PhysMem) { flip(t, pm, randPA()) },
		func(pm *mem.PhysMem) { write(t, pm, randPA(), []byte{0}) },
		func(pm *mem.PhysMem) { touch(t, pm, uint64(rng.Intn(digestFrames))) },
		func(pm *mem.PhysMem) { // rewrite a line with its own bytes
			pa := randPA() &^ (lineSize - 1)
			write(t, pm, pa, read(t, pm, pa, lineSize))
		},
		func(pm *mem.PhysMem) { // move a line within its frame
			pa := randPA() &^ (lineSize - 1)
			to := pa&^(mem.PageSize-1) | uint64(rng.Intn(mem.PageSize/lineSize))*lineSize
			line := read(t, pm, pa, lineSize)
			write(t, pm, pa, make([]byte, lineSize))
			write(t, pm, to, line)
		},
	}
	var equal, differ int
	for i := 0; i < 400; i++ {
		a := mem.NewPhysMem(digestFrames * mem.PageSize)
		fill(a, i%2 == 1)
		b := a.Fork()
		edits[rng.Intn(len(edits))](b)
		got, want := memDigest(a) == memDigest(b), referenceMem(a) == referenceMem(b)
		if got != want {
			t.Fatalf("pair %d: line-mask equality %v, full-frame equality %v", i, got, want)
		}
		if want {
			equal++
		} else {
			differ++
		}
	}
	t.Logf("%d pairs equal, %d differ", equal, differ)
	if equal < 50 || differ < 50 {
		t.Errorf("pairs not mixed enough: %d equal, %d differ", equal, differ)
	}
}

// digestSink keeps the benchmarked digests observable.
var digestSink Digest

// BenchmarkCaptureDigest times the digest on a finished fork-fleet cell
// (mostly-zero LightZone stage-1 tables) and on 256 frames of random
// bytes, the worst case, where every line is set.
func BenchmarkCaptureDigest(b *testing.B) {
	b.Run("fork-fleet", func(b *testing.B) {
		cfg := workload.DomainSwitchConfig{
			Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
			Variant:  workload.VariantLZTTBR, Domains: 32, Iters: 1000, Seed: 1,
		}
		env, p, err := workload.ForkDomainSwitch(cfg)
		if err != nil {
			b.Fatal(err)
		}
		finishDigest(b, env, p, workload.DomainSwitchBudget(cfg))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			digestSink = CaptureDigest(env.M.CPU, env.M.PM)
		}
	})
	b.Run("dense-256", func(b *testing.B) {
		const frames = 256
		pm := mem.NewPhysMem(frames * mem.PageSize)
		buf := make([]byte, frames*mem.PageSize)
		rand.New(rand.NewSource(1)).Read(buf)
		write(b, pm, 0, buf)
		c := cpu.New(arm64.ProfileCortexA55(), pm)
		b.SetBytes(frames * mem.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			digestSink = CaptureDigest(c, pm)
		}
	})
}
