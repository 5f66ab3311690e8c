package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// TestForkSharesThenCopiesOnWrite is the core COW contract: a fork shares
// every materialized frame, reads stay identical on both sides and copy
// nothing, and the child's first write to a shared page privatizes exactly
// that one frame, however it is stored.
func TestForkSharesThenCopiesOnWrite(t *testing.T) {
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
		if pm.Forks() != 1 {
			t.Errorf("parent Forks() = %d, want 1", pm.Forks())
		}
		if got := child.SharedFrames(); got != 2 {
			t.Errorf("child shares %d frames after fork, want 2", got)
		}
		buf := make([]byte, PageSize)
		if err := child.Read(pa1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(1)) {
			t.Error("child read of shared frame differs from parent contents")
		}
		if got := child.COWCopies(); got != 0 {
			t.Errorf("reading a shared frame copied it: COWCopies = %d", got)
		}

		// First child write: exactly one copy; the parent's bytes are
		// untouched, and the copy is stored the way the original was.
		if err := k.write(child, pa1, 9); err != nil {
			t.Fatal(err)
		}
		if got := child.COWCopies(); got != 1 {
			t.Errorf("child privatized %d frames after one write, want exactly 1", got)
		}
		if got := pm.COWCopies(); got != 0 {
			t.Errorf("parent privatized %d frames without writing, want 0", got)
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

		// A second write to the same page must not copy again, even when
		// the byte write turns a compact copy dense.
		if err := child.WriteUint(pa1+8, 8, 0xfeed); err != nil {
			t.Fatal(err)
		}
		if got := child.COWCopies(); got != 1 {
			t.Errorf("second write to a privatized page copied again: COWCopies = %d", got)
		}

		// Writing the other shared page is a second, independent copy.
		if err := k.write(child, pa2, 8); err != nil {
			t.Fatal(err)
		}
		if got := child.COWCopies(); got != 2 {
			t.Errorf("child COWCopies = %d after writing two shared pages, want 2", got)
		}
		if issues := child.AuditCOW(); len(issues) != 0 {
			t.Errorf("audit: %v", issues)
		}
	})
}

// TestForkParentWriteDoesNotDisturbChild checks the symmetric direction:
// the parent privatizes on write too, and the child keeps the snapshot view.
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
		if got := pm.COWCopies(); got != 1 {
			t.Errorf("parent COWCopies = %d after one write, want 1", got)
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

// TestForkSoleHolderWritesInPlace: once the child privatizes a page, the
// parent is the sole remaining holder of the original storage and may
// reclaim it without another copy — the dirty-page count stays exact.
func TestForkSoleHolderWritesInPlace(t *testing.T) {
	forEachKind(t, func(t *testing.T, k frameKind) {
		pm := newTestPhys(t)
		pa := PA(0x3000)
		if err := k.write(pm, pa, 4); err != nil {
			t.Fatal(err)
		}
		child := pm.Fork()
		if err := k.write(child, pa, 5); err != nil {
			t.Fatal(err)
		}
		if err := k.write(pm, pa, 6); err != nil {
			t.Fatal(err)
		}
		if got := pm.COWCopies(); got != 0 {
			t.Errorf("sole holder copied instead of reclaiming in place: parent COWCopies = %d", got)
		}
		buf := make([]byte, PageSize)
		if err := child.Read(pa, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(5)) {
			t.Error("parent in-place write corrupted the child's privatized frame")
		}
	})
}

// TestForkFreeListReuseDetaches: reallocating a freed frame whose storage is
// still shared must detach to a fresh zero frame stored the same way
// (zeroing in place would wipe the relative's view), and the slot must stay
// materialized so the digest's frame set matches a cold boot's.
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
		if got := pm.COWCopies(); got != 1 {
			t.Errorf("detaching counted %d copies, want 1", got)
		}
		buf := make([]byte, PageSize)
		if err := child.Read(pa, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, k.want(11)) {
			t.Error("reallocating a shared frame wiped the fork relative's view")
		}
		if compactAt(pm, pa) != compact {
			t.Error("detaching changed how the frame is stored")
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
// level, and requires the COW audit to hold from every family member's view.
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

// TestAuditCOWCatchesMissingShareCell simulates an unaccounted holder — a
// shared storage whose share cell was lost — which the audit must flag
// because an in-place write would leak across domains.
func TestAuditCOWCatchesMissingShareCell(t *testing.T) {
	pm := newTestPhys(t)
	pa := PA(0x2000)
	if err := pm.Write(pa, pattern(1)); err != nil {
		t.Fatal(err)
	}
	child := pm.Fork()
	idx := uint64(pa) >> PageShift
	child.cowShares[idx>>frameChunkShift][idx&(1<<frameChunkShift-1)] = nil
	issues := child.AuditCOW()
	if len(issues) == 0 {
		t.Fatal("audit missed a shared frame with no share cell")
	}
	for _, is := range issues {
		if is.PA != pa {
			t.Errorf("issue at %v, want all issues at %v: %v", is.PA, pa, is.Detail)
		}
	}
}

// TestForkConcurrentChildrenIsolated forks several children off one zygote
// (forks serialized, as the zygote pool guarantees) and lets them break
// sharing concurrently. Every child must end with its own pattern, the
// parent must keep the snapshot, and the audit must stay clean — under
// -race this also proves the copy-before-decrement ordering.
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
			if got := c.COWCopies(); got != pages {
				t.Errorf("child %d privatized %d pages, want %d", k, got, pages)
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
// (which write table descriptors through the COW funnel) must stay private.
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

	// Map a new page in the child only: the descriptor store must privatize
	// the table frame, leaving the parent's walker blind to it.
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
	if pm2.COWCopies() == 0 {
		t.Error("child descriptor store did not go through the COW funnel")
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
