package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// ErrOutOfFrames is returned when the frame allocator is exhausted.
var ErrOutOfFrames = errors.New("physical memory exhausted")

// PhysMem is sparse simulated physical memory with a frame allocator.
// Frames are materialized on first touch, so multi-gigabyte address spaces
// cost only what is actually used.
// frameChunkShift groups frames into chunks of 512 (one 2MB span) so the
// frame table is a two-level array instead of a hash map: instruction
// fetches and page-table walks resolve frames with two indexed loads and no
// hashing, while sparse chunks keep memory proportional to what is touched.
const frameChunkShift = 9

// frameChunk holds the storage of 512 frames. A materialized frame is
// stored one of two ways, and exactly one of its two slots is set: dense,
// as a 4KB page, or compact (see compactFrame). Which one is a host-memory
// decision of this file alone; every read sees the same bytes either way.
type frameChunk struct {
	dense   [1 << frameChunkShift]*[PageSize]byte
	compact [1 << frameChunkShift]*compactFrame
}

// storage returns frame fi's storage pointer, dense or compact, or nil
// when the frame is untouched.
func (ch *frameChunk) storage(fi int) any {
	if f := ch.dense[fi]; f != nil {
		return f
	}
	if c := ch.compact[fi]; c != nil {
		return c
	}
	return nil
}

// compactCap is the most non-zero words a compact frame holds.
const compactCap = 8

// compactFrame stores a frame whose non-zero 8-byte words number at most
// compactCap: word idx[k] holds val[k] for k < n, in ascending idx, and
// every other word is zero. Page-table frames written through the
// table-word path start compact, since most hold one to three descriptors;
// such a frame costs about 100 bytes instead of 4KB. Storing a non-zero
// word past the cap, or any byte-path write, turns the frame dense.
type compactFrame struct {
	n   int
	idx [compactCap]uint16
	val [compactCap]uint64
}

// word returns word i.
func (c *compactFrame) word(i uint64) uint64 {
	for k := 0; k < c.n; k++ {
		if uint64(c.idx[k]) == i {
			return c.val[k]
		}
	}
	return 0
}

// store sets word i to v. It reports false, changing nothing, when v is a
// non-zero word the frame has no room for.
func (c *compactFrame) store(i, v uint64) bool {
	k := 0
	for k < c.n && uint64(c.idx[k]) < i {
		k++
	}
	switch {
	case k < c.n && uint64(c.idx[k]) == i && v != 0:
		c.val[k] = v
	case k < c.n && uint64(c.idx[k]) == i:
		copy(c.idx[k:c.n], c.idx[k+1:c.n])
		copy(c.val[k:c.n], c.val[k+1:c.n])
		c.n--
		c.idx[c.n], c.val[c.n] = 0, 0
	case v == 0:
	case c.n == compactCap:
		return false
	default:
		copy(c.idx[k+1:c.n+1], c.idx[k:c.n])
		copy(c.val[k+1:c.n+1], c.val[k:c.n])
		c.idx[k], c.val[k] = uint16(i), v
		c.n++
	}
	return true
}

// read copies the frame's bytes [off, off+len(buf)) into buf.
func (c *compactFrame) read(off uint64, buf []byte) {
	clear(buf)
	end := off + uint64(len(buf))
	for k := 0; k < c.n; k++ {
		lo := uint64(c.idx[k]) * 8
		if lo+8 <= off || lo >= end {
			continue
		}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], c.val[k])
		s, e := max(lo, off), min(lo+8, end)
		copy(buf[s-off:e-off], w[s-lo:e-lo])
	}
}

// load returns the size-byte little-endian value at off, which must not
// cross the frame's end.
func (c *compactFrame) load(off uint64, size int) uint64 {
	if off&7 == 0 && size == 8 {
		return c.word(off >> 3)
	}
	var b [8]byte
	c.read(off, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// render writes the frame's words into f, whose other words must be zero.
func (c *compactFrame) render(f *[PageSize]byte) {
	for k := 0; k < c.n; k++ {
		binary.LittleEndian.PutUint64(f[uint64(c.idx[k])*8:], c.val[k])
	}
}

// erase zeroes the words of f that render wrote.
func (c *compactFrame) erase(f *[PageSize]byte) {
	for k := 0; k < c.n; k++ {
		binary.LittleEndian.PutUint64(f[uint64(c.idx[k])*8:], 0)
	}
}

// cowChunk parallels frameChunk with per-frame share counters. A non-nil
// cell means the frame's storage is (or was) shared with a fork relative;
// the cell's value is the number of PhysMems whose frame table still points
// at that storage. Cells are shared across the fork family and atomic so
// forked machines running on different goroutines can break sharing
// concurrently.
type cowChunk [1 << frameChunkShift]*atomic.Int64

type PhysMem struct {
	chunks    []*frameChunk
	numFrames uint64
	next      uint64
	freeList  []uint64
	allocated uint64

	// COW fork state (zygote snapshot/fork, DESIGN.md §14). These fields
	// and the frame storage are confined to this file by tools/lint: the
	// copy-on-write soundness argument — every mutation funnels through
	// frameForWrite or storeTableWord, refcounts account every holder — is
	// an audit of phys.go alone.
	cowShares []*cowChunk // per-frame share cells, parallel to chunks
	// cowChunkShared[ci] marks the chunk and share arrays at ci as shared
	// with a fork relative: Fork hands out the array pointers instead of
	// copying the metadata per live chunk, and every slot store goes
	// through unshare to privatize the arrays first. Relatives only ever
	// read shared arrays, so children may run concurrently.
	cowChunkShared []bool
	cowParent      *PhysMem // the PhysMem this one was forked from (nil at cold boot)
	cowForks       uint64   // number of children forked off this PhysMem
	cowCopies      uint64   // frames privatized by copy-on-write (the dirty-page count)
}

// NewPhysMem creates physical memory of size bytes (rounded down to whole
// frames).
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{numFrames: size >> PageShift}
}

// chunkFor returns the chunk holding frame index idx, materializing it (and
// growing the chunk table, which is sized to the highest chunk ever touched
// rather than the full address space) on first use. Keeping the table dense
// only up to the live span is what makes Fork O(materialized frames): a 4GB
// machine that touches one 2MB span forks a one-entry table, not 2048.
func (m *PhysMem) chunkFor(idx uint64) *frameChunk {
	ci := idx >> frameChunkShift
	if ci >= uint64(len(m.chunks)) {
		m.chunks = append(m.chunks, make([]*frameChunk, ci+1-uint64(len(m.chunks)))...)
	}
	ch := m.chunks[ci]
	if ch == nil {
		ch = new(frameChunk)
		m.chunks[ci] = ch
	}
	return ch
}

// Size returns the modelled physical memory size in bytes.
func (m *PhysMem) Size() uint64 { return m.numFrames << PageShift }

// AllocatedBytes returns the bytes currently handed out by the allocator.
func (m *PhysMem) AllocatedBytes() uint64 { return m.allocated << PageShift }

// AllocFrame allocates a zeroed physical frame and returns its base address.
func (m *PhysMem) AllocFrame() (PA, error) {
	var idx uint64
	switch {
	case len(m.freeList) > 0:
		idx = m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
		// Reused frames must be zeroed for page-table safety. A frame
		// keeps the way it is stored.
		ci, fi := idx>>frameChunkShift, idx&(1<<frameChunkShift-1)
		ch := m.chunkAt(ci)
		if ch == nil || ch.dense[fi] == nil && ch.compact[fi] == nil {
			break
		}
		switch cell := m.cowCell(idx); {
		case cell == nil:
			zeroFrame(ch.dense[fi], ch.compact[fi])
		case cell.Load() > 1:
			// The storage is still shared with a fork relative: zeroing
			// in place would wipe the relative's view of the page.
			// Detach to fresh zero storage instead; the slot stays
			// materialized so the digest's frame set matches a cold
			// boot's.
			m.unshare(ci)
			if ch = m.chunks[ci]; ch.dense[fi] != nil {
				ch.dense[fi] = new([PageSize]byte)
			} else {
				ch.compact[fi] = new(compactFrame)
			}
			m.cowShares[ci][fi] = nil
			cell.Add(-1)
			m.cowCopies++
		default:
			m.unshare(ci)
			m.cowShares[ci][fi] = nil
			zeroFrame(ch.dense[fi], ch.compact[fi])
		}
	case m.next < m.numFrames:
		idx = m.next
		m.next++
	default:
		return 0, ErrOutOfFrames
	}
	m.allocated++
	return PA(idx << PageShift), nil
}

// zeroFrame zeroes a frame's storage in place: f or c, whichever is set.
func zeroFrame(f *[PageSize]byte, c *compactFrame) {
	if f != nil {
		*f = [PageSize]byte{}
	} else {
		*c = compactFrame{}
	}
}

// AllocContiguous allocates n physically contiguous zeroed frames and
// returns the base of the run, aligned to the run size when n is a power
// of two (2MB block mappings require naturally aligned physical memory).
func (m *PhysMem) AllocContiguous(n uint64) (PA, error) {
	base := m.next
	if n&(n-1) == 0 && n > 0 {
		base = (base + n - 1) &^ (n - 1)
	}
	if base+n > m.numFrames {
		return 0, ErrOutOfFrames
	}
	// Skipped frames from alignment are returned to the free list.
	for f := m.next; f < base; f++ {
		m.freeList = append(m.freeList, f)
	}
	m.next = base + n
	m.allocated += n
	return PA(base << PageShift), nil
}

// FreeFrame returns a frame to the allocator.
func (m *PhysMem) FreeFrame(pa PA) {
	m.freeList = append(m.freeList, uint64(pa)>>PageShift)
	if m.allocated > 0 {
		m.allocated--
	}
}

// chunkAt returns the chunk for index ci without materializing anything.
func (m *PhysMem) chunkAt(ci uint64) *frameChunk {
	if ci >= uint64(len(m.chunks)) {
		return nil
	}
	return m.chunks[ci]
}

// unshare privatizes chunk ci's metadata arrays (the frame pointers and the
// share cells) before a slot store. Fork shares the array pointers with the
// child; since every mutator copies before its first store, a shared array
// is only ever read, and fork relatives can run concurrently without
// observing each other's metadata updates. The share cells themselves stay
// shared — they count holders across the whole family.
func (m *PhysMem) unshare(ci uint64) {
	if ci >= uint64(len(m.cowChunkShared)) || !m.cowChunkShared[ci] {
		return
	}
	if ch := m.chunks[ci]; ch != nil {
		nch := new(frameChunk)
		*nch = *ch
		m.chunks[ci] = nch
	}
	if ci < uint64(len(m.cowShares)) {
		if sc := m.cowShares[ci]; sc != nil {
			nsc := new(cowChunk)
			*nsc = *sc
			m.cowShares[ci] = nsc
		}
	}
	m.cowChunkShared[ci] = false
}

// resolve returns pa's frame storage, dense or compact (exactly one is
// set). An untouched frame materializes on first touch: compact when the
// table-word path touches it (compact set), dense otherwise.
func (m *PhysMem) resolve(pa PA, compact bool) (*[PageSize]byte, *compactFrame, error) {
	idx := uint64(pa) >> PageShift
	if idx >= m.numFrames {
		return nil, nil, fmt.Errorf("physical address %v beyond memory size %#x", pa, m.Size())
	}
	ci, fi := idx>>frameChunkShift, idx&(1<<frameChunkShift-1)
	ch := m.chunkFor(idx)
	if f := ch.dense[fi]; f != nil {
		return f, nil, nil
	}
	if c := ch.compact[fi]; c != nil {
		return nil, c, nil
	}
	m.unshare(ci)
	ch = m.chunks[ci]
	if compact {
		c := new(compactFrame)
		ch.compact[fi] = c
		return nil, c, nil
	}
	f := new([PageSize]byte)
	ch.dense[fi] = f
	return f, nil, nil
}

// cowCell returns the share counter for a frame index, or nil when the
// frame's storage is exclusively owned.
func (m *PhysMem) cowCell(idx uint64) *atomic.Int64 {
	ci := idx >> frameChunkShift
	if ci >= uint64(len(m.cowShares)) {
		return nil
	}
	ch := m.cowShares[ci]
	if ch == nil {
		return nil
	}
	return ch[idx&(1<<frameChunkShift-1)]
}

// resolveForWrite is the copy-on-write rule both write funnels share: it
// resolves pa's frame like resolve and returns storage that is safe to
// write, breaking sharing first when a fork relative holds it. Ordering
// matters for concurrently running forks: the copy happens before the
// refcount drop, so no other holder can ever observe a count of 1 (and
// write in place) while this PhysMem still reads the shared storage.
func (m *PhysMem) resolveForWrite(pa PA, compact bool) (*[PageSize]byte, *compactFrame, error) {
	f, c, err := m.resolve(pa, compact)
	if err != nil {
		return nil, nil, err
	}
	idx := uint64(pa) >> PageShift
	cell := m.cowCell(idx)
	if cell == nil {
		return f, c, nil
	}
	ci, fi := idx>>frameChunkShift, idx&(1<<frameChunkShift-1)
	if cell.Load() > 1 {
		// Copy first …
		if f != nil {
			nf := new([PageSize]byte)
			*nf = *f
			f = nf
		} else {
			nc := *c
			c = &nc
		}
		m.unshare(ci)
		m.chunks[ci].dense[fi], m.chunks[ci].compact[fi] = f, c
		m.cowShares[ci][fi] = nil
		cell.Add(-1) // … then release the shared storage
		m.cowCopies++
		return f, c, nil
	}
	// Sole remaining holder: reclaim exclusive ownership and write in place.
	m.unshare(ci)
	m.cowShares[ci][fi] = nil
	return f, c, nil
}

// frameForWrite is the byte-path mutation funnel (Write, WriteUint): it
// returns a dense frame that is safe to write, copying it first when a fork
// relative shares it, and turns a compact frame dense.
func (m *PhysMem) frameForWrite(pa PA) (*[PageSize]byte, error) {
	f, c, err := m.resolveForWrite(pa, false)
	if err != nil || f != nil {
		return f, err
	}
	return m.densify(pa, c), nil
}

// densify replaces the compact frame c, which this PhysMem holds
// exclusively at pa, with a dense frame holding the same bytes.
func (m *PhysMem) densify(pa PA, c *compactFrame) *[PageSize]byte {
	f := new([PageSize]byte)
	c.render(f)
	idx := uint64(pa) >> PageShift
	ci, fi := idx>>frameChunkShift, idx&(1<<frameChunkShift-1)
	m.unshare(ci)
	m.chunks[ci].dense[fi], m.chunks[ci].compact[fi] = f, nil
	return f
}

// tableWord returns word i (i < 512) of the page-table frame at tab, which
// must be page-aligned. An untouched frame materializes compact.
func (m *PhysMem) tableWord(tab PA, i uint64) (uint64, error) {
	f, c, err := m.resolve(tab, true)
	if err != nil {
		return 0, err
	}
	if f != nil {
		return binary.LittleEndian.Uint64(f[i*8 : i*8+8]), nil
	}
	return c.word(i), nil
}

// storeTableWord is the table-word mutation funnel: it stores v into word
// i (i < 512) of the page-table frame at tab, under the same copy-on-write
// rule as frameForWrite. An untouched frame materializes compact, and a
// compact frame turns dense when v is a non-zero word past its cap.
func (m *PhysMem) storeTableWord(tab PA, i, v uint64) error {
	f, c, err := m.resolveForWrite(tab, true)
	if err != nil {
		return err
	}
	if f == nil {
		if c.store(i, v) {
			return nil
		}
		f = m.densify(tab, c)
	}
	binary.LittleEndian.PutUint64(f[i*8:i*8+8], v)
	return nil
}

// tableWords calls fn(i, w) for every non-zero word w of the page-table
// frame at tab in ascending index i, until fn returns false. A compact
// frame is walked as it stood when the call began. An untouched frame
// materializes compact.
func (m *PhysMem) tableWords(tab PA, fn func(i, w uint64) bool) error {
	f, c, err := m.resolve(tab, true)
	if err != nil {
		return err
	}
	if f == nil {
		words := *c
		for k := 0; k < words.n; k++ {
			if !fn(uint64(words.idx[k]), words.val[k]) {
				return nil
			}
		}
		return nil
	}
	for i := uint64(0); i < PageSize/8; i++ {
		if w := binary.LittleEndian.Uint64(f[i*8 : i*8+8]); w != 0 && !fn(i, w) {
			return nil
		}
	}
	return nil
}

// Fork snapshots this PhysMem into a copy-on-write child: the child shares
// every materialized frame's storage with the parent (share counters track
// each holder) and privatizes a frame only on its first write, so a fork
// costs O(materialized frame table) pointer copies instead of O(memory).
// Allocator state (next, free list, allocated count) is duplicated so the
// child allocates exactly as a cold-booted machine would. Dense and compact
// frames are shared alike. Forks of the same parent must be serialized by
// the caller (the zygote pool holds a per-zygote lock), but forked children
// may run and break sharing concurrently.
func (m *PhysMem) Fork() *PhysMem {
	// The chunk table only spans what was touched; keep the share and
	// shared-flag tables in step (chunks materialized since the last fork
	// extend them).
	if len(m.cowShares) < len(m.chunks) {
		m.cowShares = append(m.cowShares, make([]*cowChunk, len(m.chunks)-len(m.cowShares))...)
	}
	if len(m.cowChunkShared) < len(m.chunks) {
		m.cowChunkShared = append(m.cowChunkShared, make([]bool, len(m.chunks)-len(m.cowChunkShared))...)
	}
	for ci, ch := range m.chunks {
		if ch == nil {
			continue
		}
		sc := m.cowShares[ci]
		if sc == nil {
			sc = new(cowChunk)
			m.cowShares[ci] = sc
		}
		for fi := range sc {
			if ch.storage(fi) == nil {
				continue
			}
			cell := sc[fi]
			if cell == nil {
				// Storing a fresh cell mutates the share array: privatize
				// it first if an earlier fork still reads it. (In practice
				// a still-shared chunk cannot hold cell-less frames —
				// materializing one unshares — but stay defensive.)
				if m.cowChunkShared[ci] {
					m.unshare(uint64(ci))
					sc = m.cowShares[ci]
				}
				cell = new(atomic.Int64)
				cell.Store(1)
				sc[fi] = cell
			}
			cell.Add(1)
		}
		m.cowChunkShared[ci] = true
	}
	child := &PhysMem{
		// Hand the metadata array pointers to the child instead of copying
		// them: both sides are flagged shared, and the first slot store on
		// either side privatizes through unshare. Fork is O(live chunks),
		// not O(live chunks × chunk size).
		chunks:         append([]*frameChunk(nil), m.chunks...),
		cowShares:      append([]*cowChunk(nil), m.cowShares...),
		cowChunkShared: append([]bool(nil), m.cowChunkShared...),
		numFrames:      m.numFrames,
		next:           m.next,
		freeList:       append([]uint64(nil), m.freeList...),
		allocated:      m.allocated,
		cowParent:      m,
	}
	m.cowForks++
	return child
}

// Forks returns how many children have been forked off this PhysMem.
func (m *PhysMem) Forks() uint64 { return m.cowForks }

// COWCopies returns the number of frames this PhysMem privatized after a
// fork — the dirty-page count of the zygote model.
func (m *PhysMem) COWCopies() uint64 { return m.cowCopies }

// SharedFrames counts materialized frames whose storage is still shared
// with a fork relative.
func (m *PhysMem) SharedFrames() uint64 {
	var n uint64
	for ci, ch := range m.chunks {
		if ch == nil || ci >= len(m.cowShares) || m.cowShares[ci] == nil {
			continue
		}
		sc := m.cowShares[ci]
		for fi := range sc {
			if ch.storage(fi) != nil && sc[fi] != nil && sc[fi].Load() > 1 {
				n++
			}
		}
	}
	return n
}

// COWIssue is one violation found by AuditCOW.
type COWIssue struct {
	// PA is the exact physical address of the offending frame.
	PA PA
	// Detail describes the violation.
	Detail string
}

// AuditCOW proves that copy-on-write sharing never aliases across isolation
// domains: walking the fork family (this PhysMem and its parent chain), (a)
// one frame storage must never back two different physical addresses — that
// would make a write at one PA appear at another, the cross-domain aliasing
// attack — and (b) storage held by more than one family member must carry a
// live share cell accounted by every holder, since an unaccounted holder
// would write shared bytes in place while a relative still reads them.
// Observation-only: no frames are materialized and no counters change.
func (m *PhysMem) AuditCOW() []COWIssue {
	var fam []*PhysMem
	for p := m; p != nil; p = p.cowParent {
		fam = append(fam, p)
	}
	type holder struct {
		pa   PA
		cell *atomic.Int64
	}
	byStorage := make(map[any][]holder) // keyed by frame storage pointer
	for _, p := range fam {
		for ci, ch := range p.chunks {
			if ch == nil {
				continue
			}
			var sc *cowChunk
			if ci < len(p.cowShares) {
				sc = p.cowShares[ci]
			}
			for fi := range ch.dense {
				f := ch.storage(fi)
				if f == nil {
					continue
				}
				var cell *atomic.Int64
				if sc != nil {
					cell = sc[fi]
				}
				pa := PA((uint64(ci)<<frameChunkShift | uint64(fi)) << PageShift)
				byStorage[f] = append(byStorage[f], holder{pa: pa, cell: cell})
			}
		}
	}
	var issues []COWIssue
	for _, hs := range byStorage {
		if len(hs) == 1 {
			continue
		}
		base := hs[0]
		shared := 0
		for _, h := range hs {
			if h.pa != base.pa {
				issues = append(issues, COWIssue{PA: h.pa, Detail: fmt.Sprintf(
					"frame storage aliased across the fork family: also backs %v", base.pa)})
				continue
			}
			if h.cell == nil {
				issues = append(issues, COWIssue{PA: h.pa, Detail: fmt.Sprintf(
					"frame %v shared by %d fork-family members without a share cell: an in-place write would leak across domains", h.pa, len(hs))})
				continue
			}
			if h.cell != base.cell {
				issues = append(issues, COWIssue{PA: h.pa, Detail: fmt.Sprintf(
					"frame %v holders disagree on the share cell", h.pa)})
				continue
			}
			shared++
		}
		if shared > 0 && base.cell != nil && base.cell.Load() < int64(shared) {
			issues = append(issues, COWIssue{PA: base.pa, Detail: fmt.Sprintf(
				"frame %v share count %d below its %d live holders", base.pa, base.cell.Load(), shared)})
		}
	}
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].PA != issues[j].PA {
			return issues[i].PA < issues[j].PA
		}
		return issues[i].Detail < issues[j].Detail
	})
	return issues
}

// PlantCOWAlias redirects dst's frame slot at the storage backing src with
// no share accounting — the cross-domain frame-share attack the
// cow-aliasing checker must catch at the exact PA. Planted-battery and test
// use only.
func (m *PhysMem) PlantCOWAlias(src, dst PA) error {
	sf, sc, err := m.resolve(src, false)
	if err != nil {
		return err
	}
	if _, _, err := m.resolve(dst, false); err != nil {
		return err
	}
	idx := uint64(dst) >> PageShift
	m.unshare(idx >> frameChunkShift)
	ch := m.chunks[idx>>frameChunkShift]
	fi := idx & (1<<frameChunkShift - 1)
	ch.dense[fi], ch.compact[fi] = sf, sc
	return nil
}

// VisitFrames calls fn for every materialized frame in ascending physical
// order. Observation only: unlike Read, it never materializes frames, so a
// full-memory digest taken between benchmark steps leaves the machine
// byte-identical (an untouched frame reads as zero and stays untouched).
// A compact frame is rendered into one scratch page that every compact
// frame of the call reuses, so fn must neither retain nor modify the frame.
func (m *PhysMem) VisitFrames(fn func(pa PA, frame *[PageSize]byte)) {
	var scratch *[PageSize]byte
	for ci, ch := range m.chunks {
		if ch == nil {
			continue
		}
		for fi, f := range &ch.dense {
			pa := PA((uint64(ci)<<frameChunkShift | uint64(fi)) << PageShift)
			if f != nil {
				fn(pa, f)
				continue
			}
			c := ch.compact[fi]
			if c == nil {
				continue
			}
			if scratch == nil {
				scratch = new([PageSize]byte)
			}
			c.render(scratch)
			fn(pa, scratch)
			c.erase(scratch)
		}
	}
}

// Read copies len(buf) bytes starting at pa. Accesses may cross frames.
func (m *PhysMem) Read(pa PA, buf []byte) error {
	for len(buf) > 0 {
		f, c, err := m.resolve(pa, false)
		if err != nil {
			return err
		}
		off := uint64(pa) & PageMask
		n := min(len(buf), int(PageSize-off))
		if f != nil {
			copy(buf, f[off:])
		} else {
			c.read(off, buf[:n])
		}
		buf = buf[n:]
		pa += PA(n)
	}
	return nil
}

// Write copies buf into physical memory starting at pa.
func (m *PhysMem) Write(pa PA, buf []byte) error {
	for len(buf) > 0 {
		f, err := m.frameForWrite(pa)
		if err != nil {
			return err
		}
		off := uint64(pa) & PageMask
		n := copy(f[off:], buf)
		buf = buf[n:]
		pa += PA(n)
	}
	return nil
}

// ReadUint reads a size-byte (1, 2, 4, 8) little-endian value that does not
// cross a frame boundary — the emulated load/store fast path. Callers must
// check the bound; crossing accesses go through Read.
func (m *PhysMem) ReadUint(pa PA, size int) (uint64, error) {
	f, c, err := m.resolve(pa, false)
	if err != nil {
		return 0, err
	}
	off := uint64(pa) & PageMask
	if f == nil {
		return c.load(off, size), nil
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(f[off : off+8]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(f[off : off+4])), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(f[off : off+2])), nil
	default:
		return uint64(f[off]), nil
	}
}

// WriteUint writes a size-byte little-endian value that does not cross a
// frame boundary. Callers must check the bound; crossing accesses go
// through Write.
func (m *PhysMem) WriteUint(pa PA, size int, v uint64) error {
	f, err := m.frameForWrite(pa)
	if err != nil {
		return err
	}
	off := uint64(pa) & PageMask
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(f[off:off+8], v)
	case 4:
		binary.LittleEndian.PutUint32(f[off:off+4], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(f[off:off+2], uint16(v))
	default:
		f[off] = byte(v)
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit word (page-table descriptors).
func (m *PhysMem) ReadU64(pa PA) (uint64, error) {
	if off := uint64(pa) & PageMask; off+8 <= PageSize {
		f, c, err := m.resolve(pa, false)
		if err != nil {
			return 0, err
		}
		if f == nil {
			return c.load(off, 8), nil
		}
		return binary.LittleEndian.Uint64(f[off : off+8]), nil
	}
	var b [8]byte
	if err := m.Read(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (m *PhysMem) WriteU64(pa PA, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(pa, b[:])
}

// ReadU32 reads a little-endian 32-bit word (instruction fetch).
func (m *PhysMem) ReadU32(pa PA) (uint32, error) {
	if off := uint64(pa) & PageMask; off+4 <= PageSize {
		f, c, err := m.resolve(pa, false)
		if err != nil {
			return 0, err
		}
		if f == nil {
			return uint32(c.load(off, 4)), nil
		}
		return binary.LittleEndian.Uint32(f[off : off+4]), nil
	}
	var b [4]byte
	if err := m.Read(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
