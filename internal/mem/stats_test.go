package mem

import "testing"

// TestCodeEpochsBumpAllFoldsMaps bumps many distinct pages, then BumpAll:
// both maps must be empty afterwards, every Snapshot taken before must have
// moved strictly up, and CodeInvalidations must count one per bump. One
// round bumps a single page over and over, so its page and region epochs
// both reach the round's bump count.
func TestCodeEpochsBumpAllFoldsMaps(t *testing.T) {
	stats := &Stats{}
	e := NewCodeEpochs(stats)
	const pages = 3 * 512 // three 2MB regions
	page := func(i int) uint64 { return uint64(0x40000 + i) }
	bumps := uint64(0)
	bump := func(i int) {
		e.BumpVA(VA(page(i) << PageShift))
		bumps++
	}
	for round, step := range []int{1, 3, 0} {
		if step == 0 {
			for n := 0; n < 100; n++ {
				bump(0)
			}
		} else {
			for i := 0; i < pages; i += step {
				bump(i)
			}
		}
		before := make([]uint64, pages+1)
		for i := range before {
			before[i] = e.Snapshot(page(i))
		}
		e.BumpAll()
		bumps++
		if len(e.pages) != 0 || len(e.regions) != 0 {
			t.Fatalf("round %d: BumpAll left %d page and %d region epochs",
				round, len(e.pages), len(e.regions))
		}
		for i, s := range before {
			if now := e.Snapshot(page(i)); now <= s {
				t.Fatalf("round %d: page %#x snapshot %d -> %d after BumpAll", round, page(i), s, now)
			}
		}
		// A page bumped after the fold still moves on its own.
		s := e.Snapshot(page(1))
		bump(1)
		if e.Snapshot(page(1)) <= s {
			t.Fatalf("round %d: BumpVA after the fold did not move the page's snapshot", round)
		}
	}
	if stats.CodeInvalidations != bumps {
		t.Errorf("CodeInvalidations = %d, want %d", stats.CodeInvalidations, bumps)
	}
}
