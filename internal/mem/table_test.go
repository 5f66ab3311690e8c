package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// Golden image of a seeded table workload driven through both typed views
// over one PhysMem. It pins frame placement, frame bytes, TableBytes, walk
// results and Visit order: a change to descent order, to the last-leaf
// memo, to the stage-1 OnAllocTable interleaving or to the order Free
// returns frames moves at least one of them. The constants were computed on
// the two hand-written table walkers the shared radix table replaced. If a
// change is meant to move frames, regenerate with
//
//	go test ./internal/mem -run TestTableGolden -v
//
// and copy the logged values.
const (
	goldenTableFrames  = "f432dab9cfc82fa496aaf059f2a515536d1eb0fb4c6c62813b71a527d6eee86c"
	goldenTableResults = "13cac281772a95b71b27d33163560f734ac20585629fc04938a3656e0ad73320"
	goldenS1Visit      = "067bbe6d118cc4df49175511e3a326c7debda0e3774bd85130534f58a1fee267"
	goldenS2Visit      = "c2cd1c2d8224f5d691744151ba556548aa91a94d44497e5106f06aeafe009e19"
	goldenS1Bytes      = 708608
	goldenS2Bytes      = 679936
)

// tableDigests is what the golden test compares.
type tableDigests struct {
	frames, results, s1Visit, s2Visit string
	s1Bytes, s2Bytes                  uint64
}

// runTableWorkload replays the seeded operation mix: about 10k Map,
// MapBlock, Unmap, UpdateLeaf and Walk calls on a Stage1 and a Stage2, with
// a short-lived third table freed twice and a copy-on-write fork halfway.
func runTableWorkload(t *testing.T) tableDigests {
	t.Helper()
	rng := rand.New(rand.NewSource(16))
	pm := NewPhysMem(64 << 20)
	s2, err := NewStage2(pm, 7)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStage1(pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			res.Write(b[:])
		}
	}
	flag := func(ok bool, err error) {
		v := uint64(0)
		if ok {
			v |= 1
		}
		if err != nil {
			v |= 2
		}
		put(v)
	}
	// Mirror stage-1 table frames into stage 2 read-only, as the LightZone
	// module does, so stage-1 descents interleave stage-2 allocations.
	mirror := func(pa PA) { flag(true, s2.Map(IPA(pa), pa, S2APRead)) }
	s1.OnAllocTable = mirror

	// Stage-1 regions span the low TTBR0 range, the top of TTBR0 and the
	// TTBR1 half; stage-2 regions sit above the mirrored table frames.
	var s1Regions, s2Regions []uint64
	for i := 0; i < 12; i++ {
		var r uint64
		switch i % 3 {
		case 0:
			r = uint64(rng.Int63n(1<<30)) &^ HugePageMask
		case 1:
			r = uint64(rng.Int63n(1<<(VABits-1))) &^ HugePageMask
		default:
			r = uint64(TTBR1Base) + uint64(rng.Int63n(1<<(VABits-1)))&^HugePageMask
		}
		s1Regions = append(s1Regions, r)
		s2Regions = append(s2Regions, 1<<30+uint64(rng.Int63n(1<<IPABits-1<<30))&^HugePageMask)
	}
	var last [2]uint64
	addrFor := func(stage int) uint64 {
		regions := s1Regions
		if stage == 1 {
			regions = s2Regions
		}
		switch p := rng.Intn(100); {
		case p < 2:
			if stage == 0 {
				return 1<<VABits | uint64(rng.Int63n(1<<VABits)) // non-canonical
			}
			return 1<<IPABits | uint64(rng.Int63n(1<<IPABits)) // beyond the IPA space
		case p < 55:
			last[stage] += PageSize // ascending runs exercise the leaf memo
		default:
			last[stage] = regions[rng.Intn(len(regions))] + uint64(rng.Intn(512))*PageSize
		}
		return last[stage]
	}
	outPA := func() PA { return PA(uint64(rng.Int63n(1<<32)) &^ PageMask) }

	for i := 0; i < 10000; i++ {
		switch i {
		case 2500, 7500:
			// A short-lived table on the same PhysMem: its Free order
			// decides which frames later allocations reuse.
			tmp, err := NewStage1(pm, 9)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 6; j++ {
				flag(true, tmp.Map(VA(s1Regions[j]+uint64(j)*PageSize), outPA(), 0))
			}
			put(tmp.TableBytes())
			tmp.Free()
		case 5000:
			// Fork: the workload continues on the copy-on-write child.
			pm = pm.Fork()
			s1, s2 = s1.CloneFor(pm), s2.CloneFor(pm)
			s1.OnAllocTable = mirror
		}
		stage := rng.Intn(2)
		addr := addrFor(stage)
		put(uint64(stage), addr)
		switch op := rng.Intn(100); {
		case op < 55:
			attrs := uint64(rng.Intn(2)) * AttrAPRO
			if stage == 0 {
				flag(true, s1.Map(VA(addr), outPA(), attrs|AttrPXN))
			} else {
				flag(true, s2.Map(IPA(addr), outPA(), S2APRead|attrs))
			}
		case op < 59:
			base := addr &^ HugePageMask
			pa := outPA() &^ HugePageMask
			if rng.Intn(8) == 0 {
				pa |= PageSize // unaligned output: rejected
			}
			if stage == 0 {
				flag(true, s1.MapBlock(VA(base), pa, AttrUXN))
			} else {
				flag(true, s2.MapBlock(IPA(base), pa, S2APRead|S2APWrite))
			}
		case op < 72:
			if stage == 0 {
				flag(s1.Unmap(VA(addr)))
			} else {
				flag(s2.Unmap(IPA(addr)))
			}
		case op < 86:
			if stage == 0 {
				flag(s1.UpdateLeaf(VA(addr), func(d uint64) uint64 { return d ^ AttrAPRO }))
			} else {
				flag(s2.UpdateLeaf(IPA(addr), func(d uint64) uint64 { return d ^ S2APWrite }))
			}
		default:
			var w WalkResult
			var err error
			if stage == 0 {
				w, err = s1.Walk(VA(addr))
			} else {
				w, err = s2.Walk(IPA(addr))
			}
			flag(w.Found, err)
			put(w.Desc, uint64(w.Level), uint64(w.Levels), uint64(w.PA), uint64(w.BlockShift))
		}
	}

	var d tableDigests
	d.results = hex.EncodeToString(res.Sum(nil))
	fh := sha256.New()
	pm.VisitFrames(func(pa PA, frame *[PageSize]byte) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(pa))
		fh.Write(b[:])
		fh.Write(frame[:])
	})
	d.frames = hex.EncodeToString(fh.Sum(nil))
	visitHash := func(h hash.Hash, addr, desc, size uint64) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], addr)
		binary.LittleEndian.PutUint64(b[8:], desc)
		binary.LittleEndian.PutUint64(b[16:], size)
		h.Write(b[:])
	}
	h1, h2 := sha256.New(), sha256.New()
	if err := s1.Visit(func(va VA, desc, size uint64) bool {
		visitHash(h1, uint64(va), desc, size)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Visit(func(ipa IPA, desc, size uint64) bool {
		visitHash(h2, uint64(ipa), desc, size)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	d.s1Visit = hex.EncodeToString(h1.Sum(nil))
	d.s2Visit = hex.EncodeToString(h2.Sum(nil))
	d.s1Bytes, d.s2Bytes = s1.TableBytes(), s2.TableBytes()
	return d
}

func TestTableGolden(t *testing.T) {
	d := runTableWorkload(t)
	t.Logf("frames %s\nresults %s\ns1 visit %s\ns2 visit %s\ntable bytes s1 %d s2 %d",
		d.frames, d.results, d.s1Visit, d.s2Visit, d.s1Bytes, d.s2Bytes)
	want := tableDigests{
		frames: goldenTableFrames, results: goldenTableResults,
		s1Visit: goldenS1Visit, s2Visit: goldenS2Visit,
		s1Bytes: goldenS1Bytes, s2Bytes: goldenS2Bytes,
	}
	if d != want {
		t.Errorf("table workload moved:\n got %+v\nwant %+v", d, want)
	}
}
