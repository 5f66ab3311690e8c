package replay

import (
	"fmt"
	"math/rand"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

// Differential fuzzing: the same seeded A64 instruction stream runs on two
// freshly booted bare vCPUs — one with every host tier enabled (decode
// cache with block-resident replay and batched charging, micro-TLBs, trace
// compiler), one with all of them off (the plain Step reference
// interpreter) — and the final registers, PSTATE, memory, cycle accounting,
// TLB statistics and exit syndrome must be bit-identical. Any difference is
// a fastpath soundness bug, minimized to a committed journal. Each side runs
// the stream several times from the same entry point so the fast side climbs
// the whole cache hierarchy: decode misses, cached-block hits, and stitched
// trace replay.

// Fuzz address space: one executable code page, a kernel RW data page, a
// user RW page and a stack page — the cpu package's canonical test layout.
const (
	fuzzCodeVA   = mem.VA(0x10000)
	fuzzDataVA   = mem.VA(0x40000)
	fuzzUserVA   = mem.VA(0x80000)
	fuzzStackTop = uint64(0x60000)
)

// MaxFuzzWords bounds a stream to the single mapped code page, leaving room
// for the appended terminator.
const MaxFuzzWords = int(mem.PageSize/arm64.InsnBytes) - 1

// newFuzzEnv boots a bare vCPU at EL1 over a fresh address space and
// returns the physical frame behind the code page. Both sides of a dual
// run build theirs through this one function, so frame allocation order —
// and therefore every physical address — is identical.
func newFuzzEnv(fastpaths bool) (*cpu.VCPU, *mem.PhysMem, mem.PA, error) {
	pm := mem.NewPhysMem(64 << 20)
	s1, err := mem.NewStage1(pm, 1)
	if err != nil {
		return nil, nil, 0, err
	}
	mapPage := func(va mem.VA, attrs uint64) error {
		pa, err := pm.AllocFrame()
		if err != nil {
			return err
		}
		return s1.Map(va, pa, attrs|mem.AttrNG)
	}
	for _, p := range []struct {
		va    mem.VA
		attrs uint64
	}{
		{fuzzCodeVA, 0},
		{fuzzDataVA, mem.AttrPXN | mem.AttrUXN},
		{fuzzUserVA, mem.AttrAPUser | mem.AttrPXN | mem.AttrUXN},
		{mem.VA(fuzzStackTop - mem.PageSize), mem.AttrPXN | mem.AttrUXN},
	} {
		if err := mapPage(p.va, p.attrs); err != nil {
			return nil, nil, 0, err
		}
	}
	c := cpu.New(arm64.ProfileCortexA55(), pm)
	c.SetHostFastpaths(fastpaths)
	c.SetDecodeCache(fastpaths)
	c.SetTraces(fastpaths)
	// Threshold 1 stitches on the second pass and replays on the third, so
	// FuzzPasses runs land one pass in each tier of the cache hierarchy.
	c.SetTraceHotThreshold(1)
	c.SetSys(arm64.SCTLREL1, cpu.SCTLRM)
	c.SetSys(arm64.TTBR0EL1, cpu.MakeTTBR(uint64(s1.Root()), s1.ASID()))
	c.PC = uint64(fuzzCodeVA)
	c.SetSP(fuzzStackTop)
	// Deterministic nonzero register file; x20-x23 are the stream's pinned
	// memory bases (the generator never writes above x15).
	for i := uint8(0); i < 16; i++ {
		c.SetR(i, 0x0101_0101_0101_0101*uint64(i))
	}
	c.SetR(20, uint64(fuzzDataVA))
	c.SetR(21, uint64(fuzzUserVA))
	c.SetR(22, fuzzStackTop-512)
	c.SetR(23, uint64(fuzzCodeVA))
	res, err := s1.Walk(fuzzCodeVA)
	if err != nil || !res.Found {
		return nil, nil, 0, fmt.Errorf("code page missing after map: %v", err)
	}
	return c, pm, res.PA, nil
}

// loadWords writes the stream plus an HVC #0 terminator into the code page.
func loadWords(pm *mem.PhysMem, codePA mem.PA, words []uint32) error {
	buf := make([]byte, 0, (len(words)+1)*arm64.InsnBytes)
	for _, w := range append(append([]uint32{}, words...), arm64.HVC(0)) {
		buf = append(buf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return pm.Write(codePA, buf)
}

// FuzzPasses is how many times each side executes the stream from the entry
// point. Pass 1 decodes, pass 2 runs from cached blocks and stitches (hot
// threshold 1), pass 3 replays the stitched trace — so a single dual run
// covers every execution tier with the same architectural state trajectory.
const FuzzPasses = 3

// DualResult is the outcome of one differential run.
type DualResult struct {
	Fast, Slow         Digest
	FastExit, SlowExit cpu.Exit // final-pass exits
	// Divergence is empty when the two pipelines were bit-identical.
	Divergence string
}

// DualRun executes words on the fastpath and reference pipelines and
// compares every architectural observable. The stream need not be
// well-formed: undefined words, faulting accesses and early exits are all
// legitimate outcomes — they just must be the SAME outcome on both sides.
// Each side runs FuzzPasses passes, re-entering at the stream head with the
// carried-over register file; per-pass exits must match pairwise and the
// cumulative digest must be bit-identical.
func DualRun(words []uint32) (DualResult, error) {
	var res DualResult
	if len(words) > MaxFuzzWords {
		return res, fmt.Errorf("stream of %d words exceeds the %d-word code page", len(words), MaxFuzzWords)
	}
	run := func(fast bool) (Digest, [FuzzPasses]cpu.Exit, error) {
		var exits [FuzzPasses]cpu.Exit
		c, pm, codePA, err := newFuzzEnv(fast)
		if err != nil {
			return Digest{}, exits, err
		}
		if err := loadWords(pm, codePA, words); err != nil {
			return Digest{}, exits, err
		}
		for p := 0; p < FuzzPasses; p++ {
			c.SetEL(arm64.EL1)
			c.PC = uint64(fuzzCodeVA)
			// Forward-only control flow bounds each pass by the stream
			// length; the slack covers the terminator and delivered aborts.
			exit, err := c.Run(int64(len(words)) + 64)
			if err != nil {
				return Digest{}, exits, err
			}
			exits[p] = exit
		}
		return CaptureDigest(c, pm), exits, nil
	}
	var err error
	var fastExits, slowExits [FuzzPasses]cpu.Exit
	if res.Fast, fastExits, err = run(true); err != nil {
		return res, err
	}
	if res.Slow, slowExits, err = run(false); err != nil {
		return res, err
	}
	res.FastExit = fastExits[FuzzPasses-1]
	res.SlowExit = slowExits[FuzzPasses-1]
	switch {
	case fastExits != slowExits:
		res.Divergence = fmt.Sprintf("exit diverged: fast %+v, slow %+v", fastExits, slowExits)
	case !res.Fast.Equal(res.Slow):
		res.Divergence = "digest diverged: " + res.Slow.Delta(res.Fast)
	}
	return res, nil
}

// GenWords derives a deterministic pseudo-random A64 stream from seed. The
// mix favors long-running streams — pinned in-bounds memory bases, forward
// branches only — but deliberately includes faulting and undefined words:
// the two pipelines must agree on failure exactly as they do on success.
func GenWords(seed int64, n int) []uint32 {
	if n > MaxFuzzWords {
		n = MaxFuzzWords
	}
	rng := rand.New(rand.NewSource(seed))
	words := make([]uint32, n)
	lo := func() uint8 { return uint8(rng.Intn(16)) } // writable registers
	base := func() uint8 { return uint8(20 + rng.Intn(3)) }
	for i := range words {
		switch k := rng.Intn(100); {
		case k < 10:
			words[i] = arm64.MOVZ(lo(), uint16(rng.Intn(1<<16)), uint8(rng.Intn(4)))
		case k < 16:
			words[i] = arm64.MOVK(lo(), uint16(rng.Intn(1<<16)), uint8(rng.Intn(4)))
		case k < 20:
			words[i] = arm64.ADDImm(lo(), lo(), uint16(rng.Intn(1<<12)), rng.Intn(2) == 0)
		case k < 24:
			words[i] = arm64.SUBSImm(lo(), lo(), uint16(rng.Intn(1<<12)))
		case k < 30:
			words[i] = arm64.ADDReg(lo(), lo(), lo())
		case k < 34:
			words[i] = arm64.SUBSReg(lo(), lo(), lo())
		case k < 38:
			words[i] = arm64.EORReg(lo(), lo(), lo())
		case k < 42:
			words[i] = arm64.ORRShifted(lo(), lo(), lo(), uint8(rng.Intn(64)))
		case k < 46:
			words[i] = arm64.ANDReg(lo(), lo(), lo())
		case k < 50:
			words[i] = arm64.UBFM(lo(), lo(), uint8(rng.Intn(64)), uint8(rng.Intn(64)))
		case k < 54:
			words[i] = arm64.MADD(lo(), lo(), lo(), lo())
		case k < 57:
			words[i] = arm64.UDIV(lo(), lo(), lo())
		case k < 60:
			words[i] = arm64.LSLV(lo(), lo(), lo())
		case k < 64:
			words[i] = arm64.CSEL(lo(), lo(), lo(), uint8(rng.Intn(16)))
		case k < 67:
			words[i] = arm64.CSINC(lo(), lo(), lo(), uint8(rng.Intn(16)))
		case k < 75:
			size := uint8(rng.Intn(4))
			off := uint16(rng.Intn(int(mem.PageSize)/2)) &^ (1<<size - 1)
			words[i] = arm64.LDRImm(lo(), base(), off, size)
		case k < 83:
			size := uint8(rng.Intn(4))
			off := uint16(rng.Intn(int(mem.PageSize)/2)) &^ (1<<size - 1)
			words[i] = arm64.STRImm(lo(), base(), off, size)
		case k < 86:
			words[i] = arm64.LDUR(lo(), base(), int16(rng.Intn(256)), uint8(rng.Intn(4)))
		case k < 89:
			words[i] = arm64.STUR(lo(), base(), int16(rng.Intn(256)), uint8(rng.Intn(4)))
		case k < 92:
			// Forward branch to a later word in the stream.
			maxHop := n - i
			if maxHop > 16 {
				maxHop = 16
			}
			hop := int64(1+rng.Intn(maxHop)) * arm64.InsnBytes
			switch rng.Intn(3) {
			case 0:
				words[i] = arm64.B(hop)
			case 1:
				words[i] = arm64.BCond(uint8(rng.Intn(14)), hop)
			default:
				words[i] = arm64.CBZ(lo(), hop)
			}
		case k < 94:
			words[i] = arm64.WordNOP
		case k < 97:
			// Indexed access with an arbitrary register: usually faults, and
			// both pipelines must fault identically.
			words[i] = arm64.LDRReg(lo(), base(), lo(), uint8(rng.Intn(4)))
		default:
			// Raw random word: decode laxness and undefined-instruction
			// delivery must match across pipelines.
			words[i] = rng.Uint32()
		}
	}
	return words
}

// Minimize shrinks a diverging stream by NOP-substitution: each word is
// replaced with NOP (stream length — and therefore every branch offset —
// is preserved) and the substitution is kept whenever the divergence
// persists, iterating to a fixpoint. diverges must be deterministic.
func Minimize(words []uint32, diverges func([]uint32) bool) []uint32 {
	out := append([]uint32{}, words...)
	for changed := true; changed; {
		changed = false
		for i := range out {
			if out[i] == arm64.WordNOP {
				continue
			}
			saved := out[i]
			out[i] = arm64.WordNOP
			if diverges(out) {
				changed = true
			} else {
				out[i] = saved
			}
		}
	}
	return out
}

// FuzzJournal pins a diverging stream for replay and regression.
func FuzzJournal(seed int64, words []uint32, failure string) *Journal {
	return &Journal{
		Version: Version,
		Kind:    KindDiffFuzz,
		Fuzz:    &FuzzCase{Seed: seed, Words: words, Failure: failure},
	}
}
