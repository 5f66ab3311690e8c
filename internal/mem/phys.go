package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ErrOutOfFrames is returned when the frame allocator is exhausted.
var ErrOutOfFrames = errors.New("physical memory exhausted")

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
// such a frame costs about 100 bytes instead of 4KB. So does a frame whose
// first touch is a byte-path read: it holds no words until it is written.
// Storing a non-zero word past the cap, or any byte-path write, turns the
// frame dense.
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

// PhysMem is sparse simulated physical memory with a frame allocator.
// Frames are materialized on first touch, so multi-gigabyte address spaces
// cost only what is actually used.
type PhysMem struct {
	// tools/lint confines the frame storage and the fork parent to this
	// file, so an audit of it alone shows that every frame store goes
	// through frameForWrite or storeTableWord and that Fork shares no
	// storage.
	chunks    []*frameChunk
	numFrames uint64
	next      uint64
	freeList  []uint64
	allocated uint64
	parent    *PhysMem // the PhysMem this one was forked from (nil at cold boot)
}

// NewPhysMem creates physical memory of size bytes (rounded down to whole
// frames).
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{numFrames: size >> PageShift}
}

// chunkFor returns the chunk holding frame index idx, materializing it (and
// growing the chunk table, which is sized to the highest chunk ever touched
// rather than the full address space) on first use. Keeping the table dense
// only up to the live span keeps Fork proportional to what was touched: a
// 4GB machine that touches one 2MB span forks a one-entry table, not 2048.
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
		// keeps the way it is stored, and stays materialized.
		if ch := m.chunkAt(idx >> frameChunkShift); ch != nil {
			fi := idx & (1<<frameChunkShift - 1)
			if f := ch.dense[fi]; f != nil {
				*f = [PageSize]byte{}
			} else if c := ch.compact[fi]; c != nil {
				*c = compactFrame{}
			}
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

// resolve returns pa's frame storage, dense or compact (exactly one is
// set). An untouched frame materializes on first touch: compact when a
// read or the table-word path touches it (compact set), dense when a
// byte-path write does.
func (m *PhysMem) resolve(pa PA, compact bool) (*[PageSize]byte, *compactFrame, error) {
	idx := uint64(pa) >> PageShift
	if idx >= m.numFrames {
		return nil, nil, fmt.Errorf("physical address %v beyond memory size %#x", pa, m.Size())
	}
	fi := idx & (1<<frameChunkShift - 1)
	ch := m.chunkFor(idx)
	if f := ch.dense[fi]; f != nil {
		return f, nil, nil
	}
	if c := ch.compact[fi]; c != nil {
		return nil, c, nil
	}
	if compact {
		c := new(compactFrame)
		ch.compact[fi] = c
		return nil, c, nil
	}
	f := new([PageSize]byte)
	ch.dense[fi] = f
	return f, nil, nil
}

// frameForWrite is the byte-path mutation funnel (Write, WriteUint): it
// returns pa's frame as a dense page, turning a compact frame dense.
func (m *PhysMem) frameForWrite(pa PA) (*[PageSize]byte, error) {
	f, c, err := m.resolve(pa, false)
	if err != nil || f != nil {
		return f, err
	}
	return m.densify(pa, c), nil
}

// densify replaces the compact frame c at pa with a dense frame holding the
// same bytes.
func (m *PhysMem) densify(pa PA, c *compactFrame) *[PageSize]byte {
	f := new([PageSize]byte)
	c.render(f)
	idx := uint64(pa) >> PageShift
	ch, fi := m.chunks[idx>>frameChunkShift], idx&(1<<frameChunkShift-1)
	ch.dense[fi], ch.compact[fi] = f, nil
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
// i (i < 512) of the page-table frame at tab. An untouched frame
// materializes compact, and a compact frame turns dense when v is a non-zero
// word past its cap.
func (m *PhysMem) storeTableWord(tab PA, i, v uint64) error {
	f, c, err := m.resolve(tab, true)
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

// Fork returns a copy of this PhysMem that shares no storage with it: the
// child gets its own copy of every materialized frame, each stored the way
// this PhysMem stores it, and the allocator state (next, free list,
// allocated count), so it allocates exactly as a cold-booted machine would.
// A zygote holds 7 frames when it forks (DESIGN.md §14). Fork writes
// nothing to this PhysMem, which must not be written concurrently.
func (m *PhysMem) Fork() *PhysMem {
	child := &PhysMem{
		chunks:    make([]*frameChunk, len(m.chunks)),
		numFrames: m.numFrames,
		next:      m.next,
		freeList:  append([]uint64(nil), m.freeList...),
		allocated: m.allocated,
		parent:    m,
	}
	for ci, ch := range m.chunks {
		if ch == nil {
			continue
		}
		nch := new(frameChunk)
		for fi, f := range &ch.dense {
			if f != nil {
				nf := *f
				nch.dense[fi] = &nf
			} else if c := ch.compact[fi]; c != nil {
				nc := *c
				nch.compact[fi] = &nc
			}
		}
		child.chunks[ci] = nch
	}
	return child
}

// COWCopies returns 0: no frame storage is shared, so no write copies a
// frame. bench/unit.go reads it for mem.cow_copies_per_unit; ROADMAP item
// 2's benchmark PR deletes it with that metric.
func (m *PhysMem) COWCopies() uint64 { return 0 }

// SharedFrames returns 0: no frame storage is shared with a fork relative.
// bench/unit.go reads it for mem.shared_frames; ROADMAP item 2's benchmark
// PR deletes it with that metric.
func (m *PhysMem) SharedFrames() uint64 { return 0 }

// COWIssue is one violation found by AuditCOW.
type COWIssue struct {
	// PA is the exact physical address of the offending frame.
	PA PA
	// Detail describes the violation.
	Detail string
}

// AuditCOW proves that no frame storage is reachable from two frame slots
// of the fork family (this PhysMem and its parent chain). Storage that
// backs two physical addresses would make a write at one PA appear at
// another, the cross-domain aliasing attack. Storage that two relatives
// hold at one PA can only come from a Fork that failed to copy, and a write
// on either side would reach the other. Observation-only: no frames are
// materialized.
func (m *PhysMem) AuditCOW() []COWIssue {
	first := make(map[any]PA) // the first PA each frame storage was seen at
	var issues []COWIssue
	for p := m; p != nil; p = p.parent {
		for ci, ch := range p.chunks {
			if ch == nil {
				continue
			}
			for fi := range ch.dense {
				f := ch.storage(fi)
				if f == nil {
					continue
				}
				pa := PA((uint64(ci)<<frameChunkShift | uint64(fi)) << PageShift)
				seen, ok := first[f]
				switch {
				case !ok:
					first[f] = pa
				case seen != pa:
					issues = append(issues, COWIssue{PA: pa, Detail: fmt.Sprintf(
						"frame storage aliased across the fork family: also backs %v", seen)})
				default:
					issues = append(issues, COWIssue{PA: pa, Detail: fmt.Sprintf(
						"frame %v storage held by two fork-family members: a write on one would reach the other", pa)})
				}
			}
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

// PlantCOWAlias points dst's frame slot at the storage backing src — the
// cross-domain frame-share attack the cow-aliasing checker must catch at the
// exact PA. Planted-battery and test use only.
func (m *PhysMem) PlantCOWAlias(src, dst PA) error {
	sf, sc, err := m.resolve(src, false)
	if err != nil {
		return err
	}
	if _, _, err := m.resolve(dst, false); err != nil {
		return err
	}
	idx := uint64(dst) >> PageShift
	ch, fi := m.chunks[idx>>frameChunkShift], idx&(1<<frameChunkShift-1)
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
		f, c, err := m.resolve(pa, true)
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
	f, c, err := m.resolve(pa, true)
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
		f, c, err := m.resolve(pa, true)
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
		f, c, err := m.resolve(pa, true)
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
