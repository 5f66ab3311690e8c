package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestPhys(t *testing.T) *PhysMem {
	t.Helper()
	return NewPhysMem(64 << 20) // 64MB is ample for table tests
}

func TestPhysMemReadWriteRoundTrip(t *testing.T) {
	pm := newTestPhys(t)
	data := []byte("lightzone physical memory")
	if err := pm.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := pm.Read(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("read back %q", got)
	}
}

func TestPhysMemCrossFrameAccess(t *testing.T) {
	pm := newTestPhys(t)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	base := PA(PageSize - 100)
	if err := pm.Write(base, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := pm.Read(base, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestPhysMemBounds(t *testing.T) {
	pm := NewPhysMem(2 * PageSize)
	if err := pm.Write(PA(2*PageSize), []byte{1}); err == nil {
		t.Error("expected out-of-bounds error")
	}
}

func TestPhysMemU64U32(t *testing.T) {
	pm := newTestPhys(t)
	if err := pm.WriteU64(0x2000, 0xDEADBEEF12345678); err != nil {
		t.Fatal(err)
	}
	v, err := pm.ReadU64(0x2000)
	if err != nil || v != 0xDEADBEEF12345678 {
		t.Errorf("ReadU64 = %#x, %v", v, err)
	}
	w, err := pm.ReadU32(0x2000)
	if err != nil || w != 0x12345678 {
		t.Errorf("ReadU32 = %#x, %v (little-endian low word expected)", w, err)
	}
}

func TestFrameAllocatorExhaustionAndReuse(t *testing.T) {
	pm := NewPhysMem(4 * PageSize)
	var frames []PA
	for {
		pa, err := pm.AllocFrame()
		if err != nil {
			if !errors.Is(err, ErrOutOfFrames) {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		frames = append(frames, pa)
	}
	if len(frames) != 4 {
		t.Fatalf("allocated %d frames, want 4", len(frames))
	}
	// Dirty then free a frame; reallocation must return zeroed memory.
	if err := pm.Write(frames[1], []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	pm.FreeFrame(frames[1])
	pa, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	var b [2]byte
	if err := pm.Read(pa, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[1] != 0 {
		t.Error("reused frame not zeroed")
	}
}

func TestStage1MapWalkUnmap(t *testing.T) {
	pm := newTestPhys(t)
	s1, err := NewStage1(pm, 7)
	if err != nil {
		t.Fatal(err)
	}
	va := VA(0x4000_1000)
	pa := PA(0x20_3000)
	if err := s1.Map(va, pa, AttrAPUser); err != nil {
		t.Fatal(err)
	}
	res, err := s1.Walk(va + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("mapping not found")
	}
	if res.PA != pa+0x123 {
		t.Errorf("PA = %v, want %v", res.PA, pa+0x123)
	}
	if res.Levels != 4 {
		t.Errorf("walk levels = %d, want 4", res.Levels)
	}
	if res.Desc&AttrAPUser == 0 {
		t.Error("user attribute lost")
	}

	ok, err := s1.Unmap(va)
	if err != nil || !ok {
		t.Fatalf("Unmap = %v, %v", ok, err)
	}
	res, err = s1.Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("mapping survived unmap")
	}
}

func TestStage1WalkUnmappedDepth(t *testing.T) {
	pm := newTestPhys(t)
	s1, err := NewStage1(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s1.Walk(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Levels != 1 {
		t.Errorf("empty table walk: found=%v levels=%d", res.Found, res.Levels)
	}
}

func TestStage1NonCanonicalVA(t *testing.T) {
	pm := newTestPhys(t)
	s1, _ := NewStage1(pm, 1)
	if err := s1.Map(VA(0x0001_0000_0000_0000), 0, 0); err == nil {
		t.Error("expected non-canonical rejection")
	}
	if res, _ := s1.Walk(VA(0x00FF_0000_0000_0000)); res.Found {
		t.Error("non-canonical VA must not translate")
	}
}

func TestStage1TTBR1RangeMapping(t *testing.T) {
	pm := newTestPhys(t)
	s1, _ := NewStage1(pm, 1)
	va := TTBR1Base + 0x2000
	if err := s1.Map(va, 0x5000, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s1.Walk(va)
	if err != nil || !res.Found {
		t.Fatalf("walk: %+v, %v", res, err)
	}
	if !IsTTBR1(va) || IsTTBR1(0x2000) {
		t.Error("IsTTBR1 classification wrong")
	}
}

func TestStage1BlockMapping(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	s1, _ := NewStage1(pm, 1)
	va := VA(8 * HugePageSize)
	pa := PA(2 * HugePageSize)
	if err := s1.MapBlock(va, pa, AttrAPUser); err != nil {
		t.Fatal(err)
	}
	res, err := s1.Walk(va + 0x12345)
	if err != nil || !res.Found {
		t.Fatalf("block walk: %+v, %v", res, err)
	}
	if res.BlockShift != HugePageShift {
		t.Errorf("BlockShift = %d", res.BlockShift)
	}
	if res.PA != pa+0x12345 {
		t.Errorf("PA = %v", res.PA)
	}
	if res.Levels != 3 {
		t.Errorf("block walk levels = %d, want 3", res.Levels)
	}
	if err := s1.MapBlock(va+0x1000, pa, 0); err == nil {
		t.Error("unaligned block mapping accepted")
	}
}

func TestStage1UpdateLeaf(t *testing.T) {
	pm := newTestPhys(t)
	s1, _ := NewStage1(pm, 1)
	va := VA(0x7000)
	if err := s1.Map(va, 0x8000, 0); err != nil {
		t.Fatal(err)
	}
	ok, err := s1.UpdateLeaf(va, func(d uint64) uint64 { return d | AttrAPRO })
	if err != nil || !ok {
		t.Fatalf("UpdateLeaf = %v, %v", ok, err)
	}
	res, _ := s1.Walk(va)
	if res.Desc&AttrAPRO == 0 {
		t.Error("read-only bit not set")
	}
	ok, err = s1.UpdateLeaf(0xFFF000, func(d uint64) uint64 { return d })
	if err != nil || ok {
		t.Errorf("UpdateLeaf on unmapped = %v, %v", ok, err)
	}
}

func TestStage1Visit(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	s1, _ := NewStage1(pm, 1)
	want := map[VA]uint64{
		0x1000:            PageSize,
		0x2000:            PageSize,
		0x40000000:        PageSize,
		VA(HugePageSize):  HugePageSize,
		TTBR1Base + 0x100: 0, // excluded: Visit only walks what is mapped
	}
	delete(want, TTBR1Base+0x100)
	for va, size := range want {
		var err error
		if size == HugePageSize {
			err = s1.MapBlock(va, PA(HugePageSize), 0)
		} else {
			err = s1.Map(va, PA(uint64(va)), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got := map[VA]uint64{}
	if err := s1.Visit(func(va VA, desc uint64, size uint64) bool {
		got[va] = size
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d leaves, want %d: %v", len(got), len(want), got)
	}
	for va, size := range want {
		if got[va] != size {
			t.Errorf("leaf %v size = %d, want %d", va, got[va], size)
		}
	}
	// fn returning false ends the whole walk, not just the table holding
	// the leaf: the other leaves sit in other subtrees.
	n := 0
	if err := s1.Visit(func(VA, uint64, uint64) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visited %d leaves after fn returned false, want 1", n)
	}
}

func TestStage1TableBytesGrow(t *testing.T) {
	pm := newTestPhys(t)
	s1, _ := NewStage1(pm, 1)
	before := s1.TableBytes()
	if before != PageSize {
		t.Errorf("fresh table = %d bytes", before)
	}
	if err := s1.Map(0x1000, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if s1.TableBytes() != 4*PageSize { // root + L1 + L2 + L3
		t.Errorf("after one map: %d bytes", s1.TableBytes())
	}
	// A second mapping in the same region must not allocate new tables.
	if err := s1.Map(0x2000, 0x2000, 0); err != nil {
		t.Fatal(err)
	}
	if s1.TableBytes() != 4*PageSize {
		t.Errorf("after second map: %d bytes", s1.TableBytes())
	}
}

func TestStage2MapWalk(t *testing.T) {
	pm := newTestPhys(t)
	s2, err := NewStage2(pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	ipa := IPA(0x10_0000)
	pa := PA(0x30_0000)
	if err := s2.Map(ipa, pa, S2APRead|S2APWrite); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Walk(ipa + 8)
	if err != nil || !res.Found {
		t.Fatalf("walk: %+v, %v", res, err)
	}
	if res.PA != pa+8 {
		t.Errorf("PA = %v", res.PA)
	}
	if res.Levels != 3 {
		t.Errorf("stage-2 walk levels = %d, want 3", res.Levels)
	}
	if err := s2.Map(IPA(1)<<IPABits, 0, 0); err == nil {
		t.Error("IPA beyond space accepted")
	}
}

func TestStage2UnmapAndUpdate(t *testing.T) {
	pm := newTestPhys(t)
	s2, _ := NewStage2(pm, 3)
	ipa := IPA(0x4000)
	if err := s2.Map(ipa, 0x9000, S2APRead); err != nil {
		t.Fatal(err)
	}
	ok, err := s2.UpdateLeaf(ipa, func(d uint64) uint64 { return d | S2APWrite })
	if err != nil || !ok {
		t.Fatal(err)
	}
	res, _ := s2.Walk(ipa)
	if res.Desc&S2APWrite == 0 {
		t.Error("S2 write bit not set")
	}
	ok, err = s2.Unmap(ipa)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if res, _ := s2.Walk(ipa); res.Found {
		t.Error("survived unmap")
	}
}

func TestCheckStage1PANSemantics(t *testing.T) {
	user := AttrAPUser | AttrAF
	kern := AttrAF
	tests := []struct {
		name                 string
		desc                 uint64
		acc                  AccessType
		priv, pan, unprivOvr bool
		want                 FaultKind
	}{
		{"el0 reads user page", user, AccessRead, false, false, false, FaultNone},
		{"el0 reads kernel page", kern, AccessRead, false, false, false, FaultPermission},
		{"el1 reads kernel page", kern, AccessRead, true, false, false, FaultNone},
		{"el1 reads user page pan off", user, AccessRead, true, false, false, FaultNone},
		{"el1 reads user page pan on", user, AccessRead, true, true, false, FaultPermission},
		{"el1 writes user page pan on", user, AccessWrite, true, true, false, FaultPermission},
		{"el1 exec user page pan on", user | AttrUXN, AccessExec, true, true, false, FaultNone},
		{"ldtr bypasses pan on user page", user, AccessRead, true, true, true, FaultNone},
		{"ldtr blocked on kernel page", kern, AccessRead, true, true, true, FaultPermission},
		{"write to readonly", user | AttrAPRO, AccessWrite, false, false, false, FaultPermission},
		{"read readonly ok", user | AttrAPRO, AccessRead, false, false, false, FaultNone},
		{"el0 exec uxn", user | AttrUXN, AccessExec, false, false, false, FaultPermission},
		{"el0 exec ok", user, AccessExec, false, false, false, FaultNone},
		{"el1 exec pxn", kern | AttrPXN, AccessExec, true, false, false, FaultPermission},
		{"el1 exec ok", kern, AccessExec, true, false, false, FaultNone},
		{"af clear faults", AttrAPUser, AccessRead, false, false, false, FaultAccessFlag},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CheckStage1(tt.desc, tt.acc, tt.priv, tt.pan, tt.unprivOvr)
			if got != tt.want {
				t.Errorf("CheckStage1 = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCheckStage2(t *testing.T) {
	tests := []struct {
		name string
		desc uint64
		acc  AccessType
		want FaultKind
	}{
		{"rw read", S2APRead | S2APWrite, AccessRead, FaultNone},
		{"rw write", S2APRead | S2APWrite, AccessWrite, FaultNone},
		{"ro write", S2APRead, AccessWrite, FaultPermission},
		{"wo read", S2APWrite, AccessRead, FaultPermission},
		{"exec xn", S2APRead | S2XN, AccessExec, FaultPermission},
		{"exec ok", S2APRead, AccessExec, FaultNone},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CheckStage2(tt.desc, tt.acc); got != tt.want {
				t.Errorf("CheckStage2 = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTLBBasicHitMiss(t *testing.T) {
	tlb := NewTLB(16)
	if _, ok := tlb.Lookup(1, 1, 0x1000); ok {
		t.Fatal("hit on empty TLB")
	}
	tlb.Insert(1, 1, 0x1000, TLBEntry{PABase: 0x2000, S1Desc: AttrNG, BlockShift: PageShift})
	if e, ok := tlb.Lookup(1, 1, 0x1000); !ok || e.PABase != 0x2000 {
		t.Errorf("lookup after insert: %+v, %v", e, ok)
	}
	if _, ok := tlb.Lookup(1, 2, 0x1000); ok {
		t.Error("non-global entry matched wrong ASID")
	}
	if _, ok := tlb.Lookup(2, 1, 0x1000); ok {
		t.Error("entry matched wrong VMID")
	}
	if tlb.Hits != 1 || tlb.Misses != 3 {
		t.Errorf("stats hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBGlobalEntriesSurviveASIDSwitch(t *testing.T) {
	tlb := NewTLB(16)
	// Global entry (nG clear): LightZone maps unprotected memory global.
	tlb.Insert(1, 5, 0x1000, TLBEntry{PABase: 0x9000, BlockShift: PageShift})
	for asid := uint16(0); asid < 8; asid++ {
		if _, ok := tlb.Lookup(1, asid, 0x1000); !ok {
			t.Errorf("global entry missed under ASID %d", asid)
		}
	}
	tlb.InvalidateASID(1, 5)
	if _, ok := tlb.Lookup(1, 0, 0x1000); !ok {
		t.Error("ASID invalidation must not drop global entries")
	}
}

func TestTLBInvalidation(t *testing.T) {
	tlb := NewTLB(32)
	tlb.Insert(1, 1, 0x1000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	tlb.Insert(1, 2, 0x2000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	tlb.Insert(2, 1, 0x1000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})

	tlb.InvalidateASID(1, 1)
	if _, ok := tlb.Lookup(1, 1, 0x1000); ok {
		t.Error("ASID invalidation failed")
	}
	if _, ok := tlb.Lookup(1, 2, 0x2000); !ok {
		t.Error("other ASID dropped")
	}

	tlb.InvalidateVMID(2)
	if _, ok := tlb.Lookup(2, 1, 0x1000); ok {
		t.Error("VMID invalidation failed")
	}

	tlb.Insert(1, 3, 0x5000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	tlb.InvalidateVA(1, 0x5123)
	if _, ok := tlb.Lookup(1, 3, 0x5000); ok {
		t.Error("VA invalidation failed")
	}

	tlb.Insert(1, 1, 0x7000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	tlb.InvalidateAll()
	if tlb.Len() != 0 {
		t.Error("InvalidateAll left entries")
	}
}

func TestTLBBlockEntry(t *testing.T) {
	tlb := NewTLB(16)
	base := VA(4 * HugePageSize)
	tlb.Insert(1, 1, base+0x1234, TLBEntry{
		PABase: 0x200000, S1Desc: AttrNG, BlockShift: HugePageShift,
	})
	// Any address inside the 2MB region must hit.
	if _, ok := tlb.Lookup(1, 1, base+0x1FF000); !ok {
		t.Error("2MB block entry missed inside its range")
	}
	if _, ok := tlb.Lookup(1, 1, base+2*HugePageSize); ok {
		t.Error("2MB block entry hit outside its range")
	}
}

// Regression: full and VMID invalidations must release interned
// translation-context ids. Before the fix, ctxIDs/ctxList grew by one entry
// per (VMID, ASID) pair ever observed, without bound across process churn.
func TestTLBContextInternRecycling(t *testing.T) {
	tlb := NewTLB(64)
	for round := 0; round < 200; round++ {
		vmid := uint16(round % 7)
		asid := uint16(round)
		tlb.Insert(vmid, asid, 0x1000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
		if round%2 == 0 {
			tlb.InvalidateAll()
		} else {
			tlb.InvalidateVMID(vmid)
		}
	}
	// Every round ends with the round's contexts released; only the churn
	// inside one round (tagged + global for one pair) may remain interned.
	if n := tlb.ContextCount(); n > 2 {
		t.Errorf("interned contexts grew to %d after churn, want <= 2", n)
	}

	// Survivors of a VMID invalidation must stay valid after renumbering.
	tlb.InvalidateAll()
	tlb.Insert(1, 10, 0x1000, TLBEntry{PABase: 0xA000, S1Desc: AttrNG, BlockShift: PageShift})
	tlb.Insert(2, 20, 0x2000, TLBEntry{PABase: 0xB000, S1Desc: AttrNG, BlockShift: PageShift})
	tlb.Insert(3, 30, 0x3000, TLBEntry{PABase: 0xC000, S1Desc: AttrNG, BlockShift: PageShift})
	tlb.InvalidateVMID(2)
	if e, ok := tlb.Lookup(1, 10, 0x1000); !ok || e.PABase != 0xA000 {
		t.Errorf("vmid 1 entry lost by context compaction: %+v, %v", e, ok)
	}
	if e, ok := tlb.Lookup(3, 30, 0x3000); !ok || e.PABase != 0xC000 {
		t.Errorf("vmid 3 entry lost by context compaction: %+v, %v", e, ok)
	}
	if _, ok := tlb.Lookup(2, 20, 0x2000); ok {
		t.Error("vmid 2 entry survived InvalidateVMID")
	}
}

// Regression: compactContexts must not clobber a surviving entry when a
// kept context's renumbered id equals another kept context's old id and
// both cache the same page. The in-place remap used to overwrite the
// not-yet-moved entry (cross-VM translation aliasing) and leave t.order
// holding a stale key. Both insertion orders are exercised because the
// corruption depended on which entry the order scan moved first.
func TestTLBCompactContextsSamePageSurvivors(t *testing.T) {
	for _, vmid3First := range []bool{true, false} {
		tlb := NewTLB(16)
		// Pin the intern order (missing lookups still intern contexts):
		// vmid 1 gets the lowest ids, so dropping it shifts the survivors'
		// ids down onto each other's old values.
		tlb.Lookup(1, 10, 0x1000)
		tlb.Lookup(2, 20, 0x1000)
		tlb.Lookup(3, 30, 0x1000)
		tlb.Insert(1, 10, 0x1000, TLBEntry{PABase: 0xA000, S1Desc: AttrNG, BlockShift: PageShift})
		if vmid3First {
			tlb.Insert(3, 30, 0x5000, TLBEntry{PABase: 0xC000, S1Desc: AttrNG, BlockShift: PageShift})
			tlb.Insert(2, 20, 0x5000, TLBEntry{PABase: 0xB000, S1Desc: AttrNG, BlockShift: PageShift})
		} else {
			tlb.Insert(2, 20, 0x5000, TLBEntry{PABase: 0xB000, S1Desc: AttrNG, BlockShift: PageShift})
			tlb.Insert(3, 30, 0x5000, TLBEntry{PABase: 0xC000, S1Desc: AttrNG, BlockShift: PageShift})
		}

		tlb.InvalidateVMID(1)
		if e, ok := tlb.Lookup(2, 20, 0x5000); !ok || e.PABase != 0xB000 {
			t.Errorf("vmid3First=%v: vmid 2 entry corrupted by compaction: %+v, %v", vmid3First, e, ok)
		}
		if e, ok := tlb.Lookup(3, 30, 0x5000); !ok || e.PABase != 0xC000 {
			t.Errorf("vmid3First=%v: vmid 3 entry corrupted by compaction: %+v, %v", vmid3First, e, ok)
		}
		if tlb.Len() != 2 {
			t.Errorf("vmid3First=%v: want 2 surviving entries, got %d", vmid3First, tlb.Len())
		}
		if len(tlb.order) != len(tlb.entries) {
			t.Errorf("vmid3First=%v: order/entries diverged: %d keys for %d entries",
				vmid3First, len(tlb.order), len(tlb.entries))
		}
		for _, k := range tlb.order {
			if _, ok := tlb.entries[k]; !ok {
				t.Errorf("vmid3First=%v: stale key %#x left in order", vmid3First, k)
			}
		}
	}
}

// TestTLBContextMemoAliasing replays one Insert/Lookup sequence on two TLBs
// and clears the second one's context memo before every call, so it always
// interns through the ctxIDs map. ASIDs 7 and 7+256 share a memo slot, and
// InvalidateVMID (which renumbers the surviving interned ids) and
// InvalidateAll are interleaved: a slot that served the other ASID's ids,
// or ids from before a renumbering, would change a Lookup or a counter.
func TestTLBContextMemoAliasing(t *testing.T) {
	memo, plain := NewTLB(32), NewTLB(32)
	asids := []uint16{7, 7 + tlbCtxMemoSlots}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vmid := uint16(1 + rng.Intn(3))
		asid := asids[rng.Intn(len(asids))]
		va := VA(uint64(rng.Intn(8)) << PageShift)
		clear(plain.ctxMemo[:])
		switch r := rng.Intn(100); {
		case r < 40:
			e := TLBEntry{PABase: PA(rng.Intn(1<<16)) << PageShift, S1Desc: AttrNG, BlockShift: PageShift}
			if r < 10 {
				e.S1Desc = 0 // global: shared by both ASIDs
			}
			memo.Insert(vmid, asid, va, e)
			plain.Insert(vmid, asid, va, e)
		case r < 97:
			got, gok := memo.Lookup(vmid, asid, va)
			want, wok := plain.Lookup(vmid, asid, va)
			if got != want || gok != wok {
				t.Fatalf("op %d: Lookup(%d, %d, %#x) = %+v, %v; without the memo %+v, %v",
					i, vmid, asid, uint64(va), got, gok, want, wok)
			}
		case r < 99:
			memo.InvalidateVMID(vmid)
			plain.InvalidateVMID(vmid)
		default:
			memo.InvalidateAll()
			plain.InvalidateAll()
		}
	}
	if memo.Hits != plain.Hits || memo.Misses != plain.Misses {
		t.Errorf("hits/misses %d/%d, without the memo %d/%d",
			memo.Hits, memo.Misses, plain.Hits, plain.Misses)
	}
	if memo.Hits == 0 || memo.Misses == 0 {
		t.Errorf("degenerate replay: %d hits, %d misses", memo.Hits, memo.Misses)
	}
}

// Regression: ResetStats must also clear the mirrored pipeline Stats, or
// lzinspect and trace summaries disagree with the TLB's own counters.
func TestTLBResetStatsClearsMirroredStats(t *testing.T) {
	tlb := NewTLB(16)
	stats := &Stats{}
	tlb.Stats = stats
	tlb.Insert(1, 1, 0x1000, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	tlb.Lookup(1, 1, 0x1000) // hit
	tlb.Lookup(1, 1, 0x9000) // miss
	if stats.TLBHits != 1 || stats.TLBMisses != 1 {
		t.Fatalf("mirrored stats before reset: %+v", stats)
	}
	tlb.ResetStats()
	if tlb.Hits != 0 || tlb.Misses != 0 {
		t.Errorf("own counters not reset: hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
	if stats.TLBHits != 0 || stats.TLBMisses != 0 {
		t.Errorf("mirrored stats not reset: %+v", stats)
	}
	tlb.Lookup(1, 1, 0x1000)
	if tlb.Hits != stats.TLBHits {
		t.Errorf("counters diverged after reset: tlb=%d stats=%d", tlb.Hits, stats.TLBHits)
	}
}

// Regression: InvalidateVA aimed at the middle of a 2MB region must not
// evict an unrelated 4KB entry that sits at the region base (same page
// index as the region-aligned key, different BlockShift).
func TestTLBInvalidateVABlockDiscrimination(t *testing.T) {
	tlb := NewTLB(16)
	base := VA(4 * HugePageSize)
	tlb.Insert(1, 1, base, TLBEntry{PABase: 0x1000, S1Desc: AttrNG, BlockShift: PageShift})
	tlb.InvalidateVA(1, base+5*PageSize) // elsewhere in the same 2MB region
	if _, ok := tlb.Lookup(1, 1, base); !ok {
		t.Error("unrelated 4KB entry at the region base was evicted")
	}

	// A 2MB block entry covering the region must still be dropped by an
	// invalidation anywhere inside it.
	tlb.Insert(1, 1, base+0x4000, TLBEntry{PABase: 0x200000, S1Desc: AttrNG, BlockShift: HugePageShift})
	tlb.InvalidateVA(1, base+7*PageSize)
	if _, ok := tlb.Lookup(1, 1, base+0x4000); ok {
		t.Error("2MB block entry survived a mid-region invalidation")
	}
	// And the direct-page invalidation still works for 4KB entries.
	tlb.Insert(1, 1, base+PageSize, TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	tlb.InvalidateVA(1, base+PageSize+0x10)
	if _, ok := tlb.Lookup(1, 1, base+PageSize); ok {
		t.Error("4KB entry survived invalidation of its own page")
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(4)
	for i := 0; i < 8; i++ {
		tlb.Insert(1, 1, VA(i*PageSize), TLBEntry{S1Desc: AttrNG, BlockShift: PageShift})
	}
	if tlb.Len() > 4 {
		t.Errorf("capacity exceeded: %d", tlb.Len())
	}
	// The oldest entries must be gone.
	if _, ok := tlb.Lookup(1, 1, 0); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := tlb.Lookup(1, 1, VA(7*PageSize)); !ok {
		t.Error("newest entry evicted")
	}
}

// Property: stage-1 map-then-walk returns the mapped PA with correct page
// offset for arbitrary page-aligned pairs in range.
func TestStage1MapWalkProperty(t *testing.T) {
	pm := NewPhysMem(256 << 20)
	s1, err := NewStage1(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vaPage uint32, paPage uint16, off uint16) bool {
		va := VA(uint64(vaPage) << PageShift)
		pa := PA(uint64(paPage) << PageShift)
		offset := VA(off) & PageMask
		if err := s1.Map(va, pa, 0); err != nil {
			return false
		}
		res, err := s1.Walk(va + offset)
		return err == nil && res.Found && res.PA == pa+PA(offset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPageHelpers(t *testing.T) {
	if PageAlignDown(0x1FFF) != 0x1000 {
		t.Error("PageAlignDown")
	}
	if PageAlignUp(1) != PageSize || PageAlignUp(PageSize) != PageSize {
		t.Error("PageAlignUp")
	}
	if !ValidVA(0x7FFF_FFFF_FFFF) || !ValidVA(TTBR1Base) || ValidVA(0x0001_0000_0000_0000) {
		t.Error("ValidVA")
	}
}

// Property: stage-2 map-then-walk returns the mapped PA with the correct
// page offset for arbitrary in-range pairs.
func TestStage2MapWalkProperty(t *testing.T) {
	pm := NewPhysMem(256 << 20)
	s2, err := NewStage2(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(ipaPage uint32, paPage uint16, off uint16) bool {
		ipa := IPA(uint64(ipaPage) << PageShift & (1<<IPABits - 1))
		pa := PA(uint64(paPage) << PageShift)
		offset := IPA(off) & PageMask
		if err := s2.Map(ipa, pa, S2APRead|S2APWrite); err != nil {
			return false
		}
		res, err := s2.Walk(ipa + offset)
		return err == nil && res.Found && res.PA == pa+PA(offset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a TLB insert is always observable by an immediate lookup under
// the same (vmid, asid) pair, and global entries under any asid.
func TestTLBInsertLookupProperty(t *testing.T) {
	tlb := NewTLB(4096)
	f := func(vmid, asid uint16, page uint32, global bool) bool {
		va := VA(uint64(page) << PageShift)
		e := TLBEntry{PABase: PA(page) << PageShift, BlockShift: PageShift}
		if !global {
			e.S1Desc = AttrNG
		}
		tlb.Insert(vmid, asid, va, e)
		if _, ok := tlb.Lookup(vmid, asid, va); !ok {
			return false
		}
		if global {
			if _, ok := tlb.Lookup(vmid, asid+1, va); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStage2TableBytesAndFree(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	s2, err := NewStage2(pm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.TableBytes() != PageSize {
		t.Errorf("fresh stage-2 = %d bytes", s2.TableBytes())
	}
	if err := s2.Map(0x1000, 0x2000, S2APRead); err != nil {
		t.Fatal(err)
	}
	if s2.TableBytes() != 3*PageSize { // root + L2 + L3
		t.Errorf("after map = %d bytes", s2.TableBytes())
	}
	allocated := pm.AllocatedBytes()
	s2.Free()
	if pm.AllocatedBytes() >= allocated {
		t.Error("free did not return frames")
	}
}

func TestStage2BlockMapping(t *testing.T) {
	pm := NewPhysMem(64 << 20)
	s2, err := NewStage2(pm, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A page first: its level-3 table becomes the last-leaf memo, which
	// the block over the same region must drop.
	if err := s2.Map(IPA(4*HugePageSize), 0x5000, S2APRead); err != nil {
		t.Fatal(err)
	}
	if err := s2.MapBlock(IPA(4*HugePageSize), PA(2*HugePageSize), S2APRead|S2APWrite); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Walk(IPA(4*HugePageSize) + 0x12345)
	if err != nil || !res.Found || res.BlockShift != HugePageShift {
		t.Fatalf("block walk: %+v, %v", res, err)
	}
	if res.PA != PA(2*HugePageSize)+0x12345 {
		t.Errorf("PA = %v", res.PA)
	}
	if err := s2.Map(IPA(4*HugePageSize)+0x1000, 0x6000, S2APRead); err == nil {
		t.Error("page mapped under a 2MB block")
	}
	if err := s2.MapBlock(IPA(HugePageSize+0x1000), 0, 0); err == nil {
		t.Error("unaligned stage-2 block accepted")
	}
}
