package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
)

// pattern fills a page-sized buffer with a distinguishable byte pattern.
func pattern(seed byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// frameKind writes a frame's content one of the two ways a frame comes to
// be stored: through the byte path, which stores it dense, or through the
// table-word path, which stores it compact. A later write of the same kind
// replaces the whole content, and want returns it.
type frameKind struct {
	name  string
	write func(pm *PhysMem, pa PA, seed byte) error
	want  func(seed byte) []byte
}

// sparseWords are the words the compact kind stores: three, as most table
// frames hold.
var sparseWords = [...]uint64{0, 1, 511}

func sparseWord(seed byte, i uint64) uint64 { return uint64(seed)<<32 | i<<12 | 3 }

var frameKinds = []frameKind{
	{"dense", func(pm *PhysMem, pa PA, seed byte) error { return pm.Write(pa, pattern(seed)) }, pattern},
	{"compact", func(pm *PhysMem, pa PA, seed byte) error {
		for _, i := range sparseWords {
			if err := pm.storeTableWord(pa, i, sparseWord(seed, i)); err != nil {
				return err
			}
		}
		return nil
	}, func(seed byte) []byte {
		b := make([]byte, PageSize)
		for _, i := range sparseWords {
			binary.LittleEndian.PutUint64(b[i*8:], sparseWord(seed, i))
		}
		return b
	}},
}

// forEachKind runs fn as a subtest per frame kind.
func forEachKind(t *testing.T, fn func(t *testing.T, k frameKind)) {
	for _, k := range frameKinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// storageOf returns pm's frame storage pointers, dense or compact, by PA.
func storageOf(pm *PhysMem) map[PA]any {
	out := make(map[PA]any)
	for ci, ch := range pm.chunks {
		if ch == nil {
			continue
		}
		for fi := range ch.dense {
			if f := ch.storage(fi); f != nil {
				out[PA((uint64(ci)<<frameChunkShift|uint64(fi))<<PageShift)] = f
			}
		}
	}
	return out
}

// visitedFrame is one frame as VisitFrames shows it.
type visitedFrame struct {
	pa PA
	b  []byte
}

// visitAll returns every frame VisitFrames shows, in its order.
func visitAll(pm *PhysMem) []visitedFrame {
	var out []visitedFrame
	pm.VisitFrames(func(pa PA, f *[PageSize]byte) {
		out = append(out, visitedFrame{pa, append([]byte(nil), f[:]...)})
	})
	return out
}

// TestForkCopiesEveryFrame: a fork copies every materialized frame, dense
// and compact alike and in every chunk, so no child frame slot points at
// storage of the parent's, the parent's own slots are left as they were,
// and both sides visit the same frames with the same bytes, each stored
// the same way.
func TestForkCopiesEveryFrame(t *testing.T) {
	pm := newTestPhys(t)
	seed := byte(1)
	for _, base := range []PA{0x1000, 0x1000 << frameChunkShift} {
		for i, k := range frameKinds {
			for j := 0; j < 3; j++ {
				if err := k.write(pm, base+PA(0x1000*(4*i+2*j)), seed); err != nil {
					t.Fatal(err)
				}
				seed++
			}
		}
	}
	parent := storageOf(pm)
	child := pm.Fork()
	if got := storageOf(pm); !maps.Equal(got, parent) {
		t.Error("Fork changed the parent's frame slots")
	}
	owned := make(map[any]PA, len(parent))
	for pa, f := range parent {
		owned[f] = pa
	}
	kids := storageOf(child)
	if len(kids) != len(parent) {
		t.Errorf("child holds %d frames, parent %d", len(kids), len(parent))
	}
	for pa, f := range kids {
		if ppa, ok := owned[f]; ok {
			t.Errorf("child frame %v shares the storage of the parent's frame %v", pa, ppa)
		}
		if compactAt(child, pa) != compactAt(pm, pa) {
			t.Errorf("child frame %v is stored differently from the parent's", pa)
		}
	}
	want, got := visitAll(pm), visitAll(child)
	if len(got) != len(want) {
		t.Fatalf("child visits %d frames, parent %d", len(got), len(want))
	}
	for i := range want {
		if got[i].pa != want[i].pa || !bytes.Equal(got[i].b, want[i].b) {
			t.Errorf("visited frame #%d: child %v, parent %v, bytes equal %v",
				i, got[i].pa, want[i].pa, bytes.Equal(got[i].b, want[i].b))
		}
	}
	if issues := child.AuditCOW(); len(issues) != 0 {
		t.Errorf("audit: %v", issues)
	}
}

// TestForkChildWritesStayPrivate: both sides of a fork read the parent's
// contents, and a child's writes to a frame, however it is stored, never
// reach the parent. The child's copy is stored the way the original is
// until a byte write turns it dense.
func TestForkChildWritesStayPrivate(t *testing.T) {
	forEachKind(t, func(t *testing.T, k frameKind) {
		pm := newTestPhys(t)
		pa1, pa2 := PA(0x1000), PA(0x4000)
		if err := k.write(pm, pa1, 1); err != nil {
			t.Fatal(err)
		}
		if err := k.write(pm, pa2, 2); err != nil {
			t.Fatal(err)
		}
		if compactAt(pm, pa1) != (k.name == "compact") {
			t.Fatalf("a %s write did not store the frame %s", k.name, k.name)
		}

		child := pm.Fork()
		buf := make([]byte, PageSize)
		if err := child.Read(pa1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(1)) {
			t.Error("child read of a forked frame differs from parent contents")
		}

		if err := k.write(child, pa1, 9); err != nil {
			t.Fatal(err)
		}
		if err := pm.Read(pa1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(1)) {
			t.Error("child write leaked into the parent's frame")
		}
		if err := child.Read(pa1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(9)) {
			t.Error("child's write is missing from its copy")
		}
		if compactAt(child, pa1) != compactAt(pm, pa1) {
			t.Error("the copy is stored differently from the original")
		}

		// A byte write turns a compact copy dense; the parent's frame
		// stays as it was.
		if err := child.WriteUint(pa1+8, 8, 0xfeed); err != nil {
			t.Fatal(err)
		}
		if err := pm.Read(pa1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(1)) {
			t.Error("child byte write leaked into the parent's frame")
		}
		if compactAt(pm, pa1) != (k.name == "compact") {
			t.Error("child byte write changed how the parent stores its frame")
		}

		if err := k.write(child, pa2, 8); err != nil {
			t.Fatal(err)
		}
		if err := pm.Read(pa2, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(2)) {
			t.Error("child write to a second frame leaked into the parent")
		}
		if issues := child.AuditCOW(); len(issues) != 0 {
			t.Errorf("audit: %v", issues)
		}
	})
}

// TestForkParentWriteDoesNotDisturbChild checks the symmetric direction:
// the child keeps the snapshot view when the parent writes.
func TestForkParentWriteDoesNotDisturbChild(t *testing.T) {
	forEachKind(t, func(t *testing.T, k frameKind) {
		pm := newTestPhys(t)
		pa := PA(0x2000)
		if err := k.write(pm, pa, 3); err != nil {
			t.Fatal(err)
		}
		child := pm.Fork()
		if err := k.write(pm, pa, 7); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		if err := child.Read(pa, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(3)) {
			t.Error("parent write after fork leaked into the child's snapshot")
		}
	})
}

// TestForkFreeListReuseDetaches: reallocating a freed frame after a fork
// zeroes it without touching the fork relative's view, keeps how it is
// stored, and keeps the slot materialized so the digest's frame set matches
// a cold boot's.
func TestForkFreeListReuseDetaches(t *testing.T) {
	forEachKind(t, func(t *testing.T, k frameKind) {
		pm := newTestPhys(t)
		pa, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.write(pm, pa, 11); err != nil {
			t.Fatal(err)
		}
		compact := compactAt(pm, pa)
		child := pm.Fork()
		pm.FreeFrame(pa)
		pa2, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if pa2 != pa {
			t.Fatalf("free list did not reuse the frame: got %v, want %v", pa2, pa)
		}
		buf := make([]byte, PageSize)
		if err := child.Read(pa, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(11)) {
			t.Error("reallocating a frame wiped the fork relative's view")
		}
		if compactAt(pm, pa) != compact {
			t.Error("reallocating changed how the frame is stored")
		}
		if got := visited(pm, pa); got == nil {
			t.Error("reallocated frame slot de-materialized; digest frame set now differs from a cold boot")
		} else if !bytes.Equal(got, make([]byte, PageSize)) {
			t.Error("reallocated frame is not zeroed")
		}
		if issues := child.AuditCOW(); len(issues) != 0 {
			t.Errorf("audit after free-list reuse: %v", issues)
		}
	})
}

// TestForkFirstTouchNotShared: a frame that neither side had touched at the
// fork is materialized separately on each side, so first touches of the
// same fresh PA on both sides land in distinct storage.
func TestForkFirstTouchNotShared(t *testing.T) {
	forEachKind(t, func(t *testing.T, k frameKind) {
		pm := newTestPhys(t)
		if err := k.write(pm, 0x1000, 1); err != nil {
			t.Fatal(err)
		}
		child := pm.Fork()

		fresh := PA(0x10000) // untouched on both sides
		if err := k.write(pm, fresh, 20); err != nil {
			t.Fatal(err)
		}
		if err := k.write(child, fresh, 30); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		if err := pm.Read(fresh, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(20)) {
			t.Error("child's first-touch write aliased into the parent's frame")
		}
		if err := child.Read(fresh, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(30)) {
			t.Error("parent's first-touch write aliased into the child's frame")
		}
		if issues := child.AuditCOW(); len(issues) != 0 {
			t.Errorf("audit found first-touch aliasing: %v", issues)
		}
	})
}

// TestForkChainAuditClean forks a grandchild chain, dirties pages at every
// level, and requires the fork-family audit to hold from every member's view.
func TestForkChainAuditClean(t *testing.T) {
	pm := newTestPhys(t)
	for i := 0; i < 8; i++ {
		if err := pm.Write(PA(0x1000*uint64(i+1)), pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	child := pm.Fork()
	grand := child.Fork()
	if err := child.Write(0x2000, pattern(40)); err != nil {
		t.Fatal(err)
	}
	if err := grand.Write(0x3000, pattern(50)); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write(0x4000, pattern(60)); err != nil {
		t.Fatal(err)
	}
	for i, m := range []*PhysMem{pm, child, grand} {
		if issues := m.AuditCOW(); len(issues) != 0 {
			t.Errorf("family member %d: audit issues %v", i, issues)
		}
	}
	buf := make([]byte, PageSize)
	if err := grand.Read(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pattern(1)) {
		t.Error("grandchild sees its parent's post-fork write")
	}
}

// TestAuditCOWCatchesPlantedAlias plants the cross-domain frame-share attack
// and requires the audit to flag it at the exact physical address.
func TestAuditCOWCatchesPlantedAlias(t *testing.T) {
	pm := newTestPhys(t)
	src, dst := PA(0x1000), PA(0x3000)
	if err := pm.Write(src, pattern(1)); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write(dst, pattern(2)); err != nil {
		t.Fatal(err)
	}
	if err := pm.PlantCOWAlias(src, dst); err != nil {
		t.Fatal(err)
	}
	issues := pm.AuditCOW()
	if len(issues) == 0 {
		t.Fatal("audit missed a planted frame alias")
	}
	found := false
	for _, is := range issues {
		if is.PA == dst && strings.Contains(is.Detail, "aliased across the fork family") {
			found = true
		}
	}
	if !found {
		t.Errorf("no aliasing issue at the exact planted PA %v; got %v", dst, issues)
	}
}

// TestAuditCOWCatchesShallowFork simulates a Fork that failed to copy a
// frame: the child's slot points at the parent's storage at the same PA, so
// a write on either side would reach the other. The audit must flag it at
// that PA.
func TestAuditCOWCatchesShallowFork(t *testing.T) {
	forEachKind(t, func(t *testing.T, k frameKind) {
		pm := newTestPhys(t)
		pa := PA(0x2000)
		if err := k.write(pm, pa, 1); err != nil {
			t.Fatal(err)
		}
		child := pm.Fork()
		idx := uint64(pa) >> PageShift
		ci, fi := idx>>frameChunkShift, idx&(1<<frameChunkShift-1)
		child.chunks[ci].dense[fi], child.chunks[ci].compact[fi] = pm.chunks[ci].dense[fi], pm.chunks[ci].compact[fi]
		issues := child.AuditCOW()
		if len(issues) != 1 || issues[0].PA != pa || !strings.Contains(issues[0].Detail, "held by two fork-family members") {
			t.Errorf("want one shared-storage issue at %v, got %v", pa, issues)
		}
	})
}

// TestForkConcurrentChildrenIsolated forks several children off one zygote
// and lets them write every forked frame concurrently. Every child must end
// with its own pattern, the parent must keep the snapshot, and the audit
// must stay clean; under -race this also shows that no two of them write
// one storage.
func TestForkConcurrentChildrenIsolated(t *testing.T) {
	forEachKind(t, func(t *testing.T, fk frameKind) {
		pm := newTestPhys(t)
		const pages = 16
		for i := 0; i < pages; i++ {
			if err := fk.write(pm, PA(0x1000*uint64(i+1)), 0); err != nil {
				t.Fatal(err)
			}
		}
		const kids = 4
		children := make([]*PhysMem, kids)
		for k := range children {
			children[k] = pm.Fork()
		}
		var wg sync.WaitGroup
		for k, c := range children {
			wg.Add(1)
			go func(k int, c *PhysMem) {
				defer wg.Done()
				for i := 0; i < pages; i++ {
					if err := fk.write(c, PA(0x1000*uint64(i+1)), byte(100+k)); err != nil {
						t.Errorf("child %d write: %v", k, err)
					}
				}
			}(k, c)
		}
		wg.Wait()
		buf := make([]byte, PageSize)
		for k, c := range children {
			if err := c.Read(0x1000, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, fk.want(byte(100+k))) {
				t.Errorf("child %d lost its own writes", k)
			}
			if issues := c.AuditCOW(); len(issues) != 0 {
				t.Errorf("child %d audit: %v", k, issues)
			}
		}
		if err := pm.Read(0x1000, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fk.want(0)) {
			t.Error("concurrent child writes corrupted the zygote snapshot")
		}
	})
}

// TestStage1CloneForIndependentTables: a cloned stage-1 walker over forked
// memory must see the snapshot mappings, and new mappings on either side
// (which write table descriptors through storeTableWord) must stay private.
func TestStage1CloneForIndependentTables(t *testing.T) {
	pm := newTestPhys(t)
	s1, err := NewStage1(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	va := VA(0x40_0000)
	pa, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Map(va, pa, AttrPXN|AttrUXN); err != nil {
		t.Fatal(err)
	}

	pm2 := pm.Fork()
	s1c := s1.CloneFor(pm2)
	if s1c.Root() != s1.Root() || s1c.ASID() != s1.ASID() {
		t.Fatal("clone changed root or ASID")
	}
	res, err := s1c.Walk(va)
	if err != nil || !res.Found || res.PA != pa {
		t.Fatalf("clone lost the snapshot mapping: %+v, %v", res, err)
	}

	// Map a new page in the child only: the descriptor store lands in the
	// child's copy of the table frame, leaving the parent's walker blind
	// to it.
	va2 := VA(0x41_0000)
	pa2, err := pm2.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1c.Map(va2, pa2, AttrPXN|AttrUXN); err != nil {
		t.Fatal(err)
	}
	if res, err := s1c.Walk(va2); err != nil || !res.Found {
		t.Fatalf("child cannot walk its own new mapping: %+v, %v", res, err)
	}
	if res, err := s1.Walk(va2); err != nil || res.Found {
		t.Errorf("child's post-fork mapping visible to the parent walker: %+v, %v", res, err)
	}
}

// TestTLBCloneIndependent: the cloned TLB replays the warm state (same
// entries, same hit/miss history) but invalidations afterwards stay private.
func TestTLBCloneIndependent(t *testing.T) {
	stats := &Stats{}
	tlb := NewTLB(64)
	tlb.Stats, tlb.Code = stats, NewCodeEpochs(stats)
	tlb.Insert(0, 1, 0x1000, TLBEntry{PABase: 0x2000, BlockShift: PageShift})
	if _, ok := tlb.Lookup(0, 1, 0x1000); !ok {
		t.Fatal("seed entry missing")
	}

	stats2 := &Stats{}
	*stats2 = *stats
	tlb2 := tlb.Clone(stats2, NewCodeEpochs(stats2))
	if _, ok := tlb2.Lookup(0, 1, 0x1000); !ok {
		t.Fatal("cloned TLB lost the warm entry")
	}
	tlb2.InvalidateAll()
	if _, ok := tlb2.Lookup(0, 1, 0x1000); ok {
		t.Error("clone invalidation did not drop the entry")
	}
	if _, ok := tlb.Lookup(0, 1, 0x1000); !ok {
		t.Error("clone invalidation leaked into the parent TLB")
	}
	if stats2.TLBMisses == stats.TLBMisses {
		t.Error("clone's post-invalidate miss did not land in its own Stats; counters not rebound")
	}
}

// TestForkDigestFrameSetMatchesColdBoot: visiting frames on a freshly forked
// child must enumerate exactly the parent's materialized set with identical
// bytes — the precondition for fork-vs-cold-boot digest identity.
func TestForkDigestFrameSetMatchesColdBoot(t *testing.T) {
	pm := newTestPhys(t)
	for i := 0; i < 5; i++ {
		if err := pm.Write(PA(0x1000*uint64(2*i+1)), pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	child := pm.Fork()
	snap := func(m *PhysMem) string {
		var sb strings.Builder
		m.VisitFrames(func(pa PA, f *[PageSize]byte) {
			fmt.Fprintf(&sb, "%v:%x;", pa, f[:16])
		})
		return sb.String()
	}
	if snap(pm) != snap(child) {
		t.Error("forked frame enumeration differs from the parent's")
	}
}
