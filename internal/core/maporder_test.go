package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// TestFramePlacementIndependentOfMapOrder: which physical frame holds which
// page-table page must not depend on Go map iteration order. A PAN user page
// is mapped into every domain table, and lz_alloc attaches every user page
// to the new table; both loops allocate table frames, so they must visit
// tables in ascending id and user pages in ascending VA. The scenario makes
// nine tables meet six user pages in fresh 2MB regions, then allocates one
// more table, and must produce one memory image over ten runs.
func TestFramePlacementIndependentOfMapOrder(t *testing.T) {
	const (
		tables  = 8
		regions = 6
		base    = mem.VA(0x5000_0000)
		stride  = 4 * mem.HugePageSize
	)
	images := map[string]bool{}
	for run := 0; run < 10; run++ {
		r := newRig(t)
		var extra []kernel.VMA
		for i := 0; i < regions; i++ {
			start := base + mem.VA(i)*stride
			extra = append(extra, kernel.VMA{Start: start, End: start + mem.PageSize, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "user"})
		}
		p, err := r.m.Host.CreateProcess("maporder", kernel.Program{Extra: extra})
		if err != nil {
			t.Fatal(err)
		}
		lp, err := r.lz.EnterProcess(r.m.Host, p, true, SanTTBR)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tables; i++ {
			if _, err := lp.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < regions; i++ {
			if err := lp.Prot(base+mem.VA(i)*stride, mem.PageSize, 0, PermRead|PermWrite|PermUser); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := lp.Alloc(); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		r.m.PM.VisitFrames(func(pa mem.PA, frame *[mem.PageSize]byte) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(pa))
			h.Write(b[:])
			h.Write(frame[:])
		})
		images[hex.EncodeToString(h.Sum(nil))] = true
	}
	if len(images) != 1 {
		t.Errorf("%d distinct memory images in 10 runs, want 1", len(images))
	}
}
