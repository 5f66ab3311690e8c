package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// compactAt reports whether pm stores the frame at pa compact.
func compactAt(pm *PhysMem, pa PA) bool {
	idx := uint64(pa) >> PageShift
	ch := pm.chunkAt(idx >> frameChunkShift)
	return ch != nil && ch.compact[idx&(1<<frameChunkShift-1)] != nil
}

// frameBytes reads the whole frame at pa.
func frameBytes(t *testing.T, pm *PhysMem, pa PA) []byte {
	t.Helper()
	b := make([]byte, PageSize)
	if err := pm.Read(pa, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// visited returns the bytes VisitFrames shows for the frame at pa, or nil
// when it does not visit it.
func visited(pm *PhysMem, pa PA) []byte {
	var b []byte
	pm.VisitFrames(func(vpa PA, f *[PageSize]byte) {
		if vpa == pa {
			b = append([]byte(nil), f[:]...)
		}
	})
	return b
}

func TestCompactFrameNinthWordGoesDense(t *testing.T) {
	pm := newTestPhys(t)
	pa, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	store := func(i, v uint64) {
		t.Helper()
		if err := pm.storeTableWord(pa, i, v); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(want[i*8:], v)
	}
	for k := uint64(0); k < compactCap; k++ {
		store(511-k*61, k<<32|0x703)
	}
	// A full frame still takes rewrites of its words and zero stores.
	store(511, 0xabc03)
	store(200, 0)
	if !compactAt(pm, pa) {
		t.Fatalf("a frame holding %d words is not compact", compactCap)
	}
	if got := visited(pm, pa); !bytes.Equal(got, want) {
		t.Error("VisitFrames renders the compact frame wrong")
	}
	store(7, 0xfeed03)
	if compactAt(pm, pa) {
		t.Fatalf("storing word %d left the frame compact", compactCap+1)
	}
	if got := frameBytes(t, pm, pa); !bytes.Equal(got, want) {
		t.Error("turning dense lost the frame's content")
	}
	for i := uint64(0); i < PageSize/8; i++ {
		if w, err := pm.tableWord(pa, i); err != nil || w != binary.LittleEndian.Uint64(want[i*8:]) {
			t.Fatalf("tableWord(%d) = %#x, %v", i, w, err)
		}
	}
}

func TestCompactFrameByteWriteGoesDense(t *testing.T) {
	pm := newTestPhys(t)
	pa, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{0, 1, 511} {
		if err := pm.storeTableWord(pa, i, 0x1122334455667700|i); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, PageSize)
	for _, i := range []uint64{0, 1, 511} {
		binary.LittleEndian.PutUint64(want[i*8:], 0x1122334455667700|i)
	}
	// Byte-path reads go through the compact frame without converting it.
	if v, err := pm.ReadUint(pa+5, 2); err != nil || v != 0x2233 {
		t.Errorf("ReadUint(+5, 2) = %#x, %v", v, err)
	}
	if v, err := pm.ReadU32(pa + 6); err != nil || v != 0x77011122 {
		t.Errorf("ReadU32(+6) = %#x, %v", v, err)
	}
	if v, err := pm.ReadU64(pa + 8); err != nil || v != 0x1122334455667701 {
		t.Errorf("ReadU64(+8) = %#x, %v", v, err)
	}
	if v, err := pm.ReadU64(pa + PageSize - 4); err != nil || v != 0x11223344 {
		t.Errorf("ReadU64 across the frame end = %#x, %v", v, err)
	}
	if got := frameBytes(t, pm, pa); !bytes.Equal(got, want) {
		t.Error("Read of a compact frame differs from its words")
	}
	if !compactAt(pm, pa) {
		t.Fatal("a byte-path read turned the frame dense")
	}
	if err := pm.Write(pa+13, []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee}); err != nil {
		t.Fatal(err)
	}
	copy(want[13:], []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee})
	if compactAt(pm, pa) {
		t.Fatal("a byte write left the frame compact")
	}
	if got := frameBytes(t, pm, pa); !bytes.Equal(got, want) {
		t.Error("the byte write or the conversion lost bytes")
	}
}

// TestCompactFrameReadTouchStaysCompact reads an untouched frame through
// each byte-path read: the read materializes it compact with no words,
// VisitFrames lists it as a zero page (the digest tells an all-zero frame
// from an absent one), and the first byte-path store turns it dense.
func TestCompactFrameReadTouchStaysCompact(t *testing.T) {
	pm := newTestPhys(t)
	reads := []struct {
		name string
		fn   func(pa PA) (uint64, error)
	}{
		{"Read", func(pa PA) (uint64, error) {
			var b [8]byte
			err := pm.Read(pa+3, b[:5])
			return binary.LittleEndian.Uint64(b[:]), err
		}},
		{"ReadUint", func(pa PA) (uint64, error) { return pm.ReadUint(pa+6, 2) }},
		{"ReadU64", func(pa PA) (uint64, error) { return pm.ReadU64(pa + 8) }},
		{"ReadU32", func(pa PA) (uint64, error) {
			v, err := pm.ReadU32(pa + 4)
			return uint64(v), err
		}},
	}
	zero := make([]byte, PageSize)
	for i, r := range reads {
		pa := PA(uint64(16+i) << PageShift)
		if visited(pm, pa) != nil {
			t.Fatalf("%s: frame %v materialized before the read", r.name, pa)
		}
		if v, err := r.fn(pa); err != nil || v != 0 {
			t.Errorf("%s of an untouched frame = %#x, %v; want 0", r.name, v, err)
		}
		if !compactAt(pm, pa) {
			t.Errorf("%s materialized the frame dense", r.name)
		}
		if got := visited(pm, pa); !bytes.Equal(got, zero) {
			t.Errorf("%s: the read-touched frame is not visited as a zero page (visited: %v)", r.name, got != nil)
		}
		if err := pm.WriteUint(pa+9, 1, 0x5a); err != nil {
			t.Fatal(err)
		}
		if compactAt(pm, pa) {
			t.Errorf("%s: the first byte store left the frame compact", r.name)
		}
		want := make([]byte, PageSize)
		want[9] = 0x5a
		if got := frameBytes(t, pm, pa); !bytes.Equal(got, want) {
			t.Errorf("%s: the byte store after a read touch lost bytes", r.name)
		}
	}
}

func TestCompactFrameReuseReadsZero(t *testing.T) {
	pm := newTestPhys(t)
	pa, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.storeTableWord(pa, 42, 0x5003); err != nil {
		t.Fatal(err)
	}
	pm.FreeFrame(pa)
	pa2, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pa2 != pa {
		t.Fatalf("free list did not reuse the frame: got %v, want %v", pa2, pa)
	}
	if !compactAt(pm, pa) {
		t.Error("reuse changed how the frame is stored")
	}
	if got := visited(pm, pa); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Errorf("the reused frame is not visited as a zero page (visited: %v)", got != nil)
	}
	if w, err := pm.tableWord(pa, 42); err != nil || w != 0 {
		t.Errorf("reused frame word 42 = %#x, %v", w, err)
	}
}

// refMem is the dense reference model of PhysMem for the differential
// test: every materialized frame is a 4KB array, and a fork copies them all.
type refMem struct {
	numFrames uint64
	frames    map[uint64]*[PageSize]byte // by frame index
	next      uint64
	free      []uint64
}

var errRefBounds = errors.New("beyond memory")

func newRefMem(size uint64) *refMem {
	return &refMem{numFrames: size >> PageShift, frames: map[uint64]*[PageSize]byte{}}
}

// frame returns pa's frame, materializing it on first touch.
func (m *refMem) frame(pa PA) (*[PageSize]byte, error) {
	idx := uint64(pa) >> PageShift
	if idx >= m.numFrames {
		return nil, errRefBounds
	}
	f := m.frames[idx]
	if f == nil {
		f = new([PageSize]byte)
		m.frames[idx] = f
	}
	return f, nil
}

func (m *refMem) read(pa PA, buf []byte) error {
	for len(buf) > 0 {
		f, err := m.frame(pa)
		if err != nil {
			return err
		}
		n := copy(buf, f[uint64(pa)&PageMask:])
		buf, pa = buf[n:], pa+PA(n)
	}
	return nil
}

func (m *refMem) write(pa PA, buf []byte) error {
	for len(buf) > 0 {
		f, err := m.frame(pa)
		if err != nil {
			return err
		}
		n := copy(f[uint64(pa)&PageMask:], buf)
		buf, pa = buf[n:], pa+PA(n)
	}
	return nil
}

func (m *refMem) u64(pa PA) (uint64, error) {
	var b [8]byte
	err := m.read(pa, b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

func (m *refMem) putU64(pa PA, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.write(pa, b[:])
}

func (m *refMem) alloc() (PA, error) {
	var idx uint64
	switch {
	case len(m.free) > 0:
		idx = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		if f := m.frames[idx]; f != nil {
			*f = [PageSize]byte{}
		}
	case m.next < m.numFrames:
		idx = m.next
		m.next++
	default:
		return 0, ErrOutOfFrames
	}
	return PA(idx << PageShift), nil
}

func (m *refMem) freeFrame(pa PA) { m.free = append(m.free, uint64(pa)>>PageShift) }

func (m *refMem) fork() *refMem {
	c := &refMem{numFrames: m.numFrames, frames: make(map[uint64]*[PageSize]byte, len(m.frames)),
		next: m.next, free: append([]uint64(nil), m.free...)}
	for idx, f := range m.frames {
		nf := *f
		c.frames[idx] = &nf
	}
	return c
}

// refTable is the reference radix table over refMem: table's descent,
// allocation and free order, with descriptors read and stored as plain
// 8-byte accesses.
type refTable struct {
	m       *refMem
	root    PA
	top     int
	onAlloc func(PA)
}

func (t *refTable) descend(addr uint64, to int) (PA, error) {
	tab := t.root
	for level := t.top; level < to; level++ {
		slot := tab + PA(TableIndex(addr, level)*8)
		d, err := t.m.u64(slot)
		if err != nil {
			return 0, err
		}
		if d&DescValid != 0 {
			if d&DescTable == 0 {
				return 0, errors.New("block in the way")
			}
			tab = PA(d & OAMask)
			continue
		}
		next, err := t.m.alloc()
		if err != nil {
			return 0, err
		}
		if err := t.m.putU64(slot, uint64(next)|DescValid|DescTable); err != nil {
			return 0, err
		}
		if t.onAlloc != nil {
			t.onAlloc(next)
		}
		tab = next
	}
	return tab, nil
}

func (t *refTable) mapPage(addr uint64, pa PA, attrs uint64) error {
	leaf, err := t.descend(addr, 3)
	if err != nil {
		return err
	}
	return t.m.putU64(leaf+PA(TableIndex(addr, 3)*8), uint64(pa)&OAMask|attrs|DescValid|DescTable|AttrAF)
}

func (t *refTable) mapBlock(addr uint64, pa PA, attrs uint64) error {
	if addr&HugePageMask != 0 || uint64(pa)&HugePageMask != 0 {
		return errors.New("unaligned")
	}
	tab, err := t.descend(addr, 2)
	if err != nil {
		return err
	}
	return t.m.putU64(tab+PA(TableIndex(addr, 2)*8), uint64(pa)&OAMask|attrs|DescValid|AttrAF)
}

func (t *refTable) leaf(addr uint64) (PA, uint64, error) {
	tab := t.root
	for level := t.top; level <= 3; level++ {
		slot := tab + PA(TableIndex(addr, level)*8)
		d, err := t.m.u64(slot)
		switch {
		case err != nil:
			return 0, 0, err
		case level == 3:
			return slot, d, nil
		case d&DescValid == 0:
			return 0, 0, nil
		case d&DescTable == 0:
			if level == 2 {
				return slot, d, nil
			}
			return 0, 0, nil
		}
		tab = PA(d & OAMask)
	}
	return 0, 0, nil
}

func (t *refTable) updateLeaf(addr uint64, fn func(uint64) uint64) (bool, error) {
	slot, d, err := t.leaf(addr)
	if err != nil || d&DescValid == 0 {
		return false, err
	}
	return true, t.m.putU64(slot, fn(d))
}

func (t *refTable) free(tab PA, level int) {
	if level < 3 {
		for i := uint64(0); i < PageSize/8; i++ {
			d, err := t.m.u64(tab + PA(i*8))
			if err != nil {
				break
			}
			if d&DescValid != 0 && d&DescTable != 0 {
				t.free(PA(d&OAMask), level+1)
			}
		}
	}
	t.m.freeFrame(tab)
}

// diffSide is one machine of the differential test: a PhysMem with a
// stage-1 and a stage-2 table, and the same state in the reference model.
type diffSide struct {
	pm     *PhysMem
	s1     *Stage1
	s2     *Stage2
	ref    *refMem
	r1, r2 *refTable
	owned  []PA // frames the sequence allocated itself and still holds
}

// mirror keeps stage-1 table frames mapped read-only in stage 2 on both
// sides, as the LightZone module does, so stage-1 descents interleave
// stage-2 allocations.
func (s *diffSide) mirror() {
	s.s1.OnAllocTable = func(pa PA) { _ = s.s2.Map(IPA(pa), pa, S2APRead) }
	s.r1.onAlloc = func(pa PA) { _ = s.r2.mapPage(uint64(pa), pa, S2APRead) }
}

func (s *diffSide) fork() *diffSide {
	c := &diffSide{pm: s.pm.Fork(), ref: s.ref.fork(), owned: append([]PA(nil), s.owned...)}
	c.s1, c.s2 = s.s1.CloneFor(c.pm), s.s2.CloneFor(c.pm)
	c.r1 = &refTable{m: c.ref, root: s.r1.root, top: 0}
	c.r2 = &refTable{m: c.ref, root: s.r2.root, top: 1}
	c.mirror()
	return c
}

// frameList returns the model's materialized frames in PA order.
func (m *refMem) frameList() []PA {
	pas := make([]PA, 0, len(m.frames))
	for idx := range m.frames {
		pas = append(pas, PA(idx<<PageShift))
	}
	sort.Slice(pas, func(i, j int) bool { return pas[i] < pas[j] })
	return pas
}

// check compares the side's frames with the model's and requires a clean
// fork-family audit.
func (s *diffSide) check(t *testing.T, step int, op string) {
	t.Helper()
	want := s.ref.frameList()
	n := 0
	s.pm.VisitFrames(func(pa PA, f *[PageSize]byte) {
		if n < len(want) && want[n] == pa && *s.ref.frames[uint64(pa)>>PageShift] != *f {
			t.Fatalf("step %d (%s): frame %v bytes differ from the model's", step, op, pa)
		}
		if n >= len(want) || want[n] != pa {
			t.Fatalf("step %d (%s): visited frame %v, model's frame #%d of %d differs", step, op, pa, n, len(want))
		}
		n++
	})
	if n != len(want) {
		t.Fatalf("step %d (%s): visited %d frames, model has %d", step, op, n, len(want))
	}
	if issues := s.pm.AuditCOW(); len(issues) != 0 {
		t.Fatalf("step %d (%s): AuditCOW: %v", step, op, issues)
	}
}

// TestCOWCompactFramesMatchDenseModel runs one seeded sequence of table
// operations, byte-path writes and reads (into table frames too, at
// unaligned and word-spanning offsets), table-word stores past the compact
// cap, frees with reuse, and forks with writes on every side, on PhysMem and
// on the dense reference model. After every step each side must visit the
// same frames with the same bytes and audit clean: how a frame is stored is
// invisible.
func TestCOWCompactFramesMatchDenseModel(t *testing.T) {
	const size = 64 << 20
	rng := rand.New(rand.NewSource(30))
	pm := NewPhysMem(size)
	ref := newRefMem(size)
	s2, err := NewStage2(pm, 7)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStage1(pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &refTable{m: ref, top: 1}
	r1 := &refTable{m: ref, top: 0}
	if r2.root, err = ref.alloc(); err != nil {
		t.Fatal(err)
	}
	if r1.root, err = ref.alloc(); err != nil {
		t.Fatal(err)
	}
	if r1.root != s1.Root() || r2.root != s2.Root() {
		t.Fatal("model roots differ")
	}
	sides := []*diffSide{{pm: pm, s1: s1, s2: s2, ref: ref, r1: r1, r2: r2}}
	sides[0].mirror()

	// Few regions per stage keep the frame set small and make ascending
	// runs fill leaf tables past the compact cap.
	var s1Regions, s2Regions []uint64
	for i := 0; i < 4; i++ {
		s1Regions = append(s1Regions, uint64(rng.Int63n(1<<(VABits-1)))&^HugePageMask)
		s2Regions = append(s2Regions, 1<<30+uint64(rng.Int63n(1<<IPABits-1<<30))&^HugePageMask)
	}
	addr := func(stage int) uint64 {
		regions := s1Regions
		if stage == 1 {
			regions = s2Regions
		}
		return regions[rng.Intn(len(regions))] + uint64(rng.Intn(24))*PageSize
	}
	outPA := func() PA { return PA(uint64(rng.Int63n(size)) &^ PageMask) }
	// Data frames sit far above the frames the allocator hands out.
	const dataBase = PA(48 << 20)
	dataPA := func() PA { return dataBase + PA(rng.Intn(8*PageSize)) }
	// anyFrame is a materialized frame (mostly tables) or an untouched one.
	anyFrame := func(s *diffSide) PA {
		if rng.Intn(4) == 0 {
			return PA(rng.Intn(int(s.ref.next)+4) << PageShift)
		}
		pas := s.ref.frameList()
		return pas[rng.Intn(len(pas))]
	}
	same := func(step int, op string, a, b error) {
		t.Helper()
		if (a == nil) != (b == nil) {
			t.Fatalf("step %d (%s): error %v, model %v", step, op, a, b)
		}
	}

	for step := 0; step < 600; step++ {
		s := sides[rng.Intn(len(sides))]
		var op string
		switch p := rng.Intn(100); {
		case p < 28:
			op = "map"
			a, pa, ro := addr(step&1), outPA(), uint64(rng.Intn(2))*AttrAPRO
			if step&1 == 0 {
				same(step, op, s.s1.Map(VA(a), pa, ro|AttrPXN), s.r1.mapPage(a, pa, ro|AttrPXN))
			} else {
				same(step, op, s.s2.Map(IPA(a), pa, S2APRead|ro), s.r2.mapPage(a, pa, S2APRead|ro))
			}
		case p < 31:
			op = "map block"
			a, pa := addr(step&1)&^HugePageMask, outPA()&^HugePageMask
			if step&1 == 0 {
				same(step, op, s.s1.MapBlock(VA(a), pa, AttrUXN), s.r1.mapBlock(a, pa, AttrUXN))
			} else {
				same(step, op, s.s2.MapBlock(IPA(a), pa, S2APRead), s.r2.mapBlock(a, pa, S2APRead))
			}
		case p < 38:
			op = "unmap"
			a := addr(step & 1)
			var ok, rok bool
			var err, rerr error
			zero := func(uint64) uint64 { return 0 }
			if step&1 == 0 {
				ok, err = s.s1.Unmap(VA(a))
				rok, rerr = s.r1.updateLeaf(a, zero)
			} else {
				ok, err = s.s2.Unmap(IPA(a))
				rok, rerr = s.r2.updateLeaf(a, zero)
			}
			same(step, op, err, rerr)
			if ok != rok {
				t.Fatalf("step %d: Unmap found %v, model %v", step, ok, rok)
			}
		case p < 45:
			op = "update leaf"
			a := addr(step & 1)
			flip := func(d uint64) uint64 { return d ^ AttrAPRO }
			var ok, rok bool
			var err, rerr error
			if step&1 == 0 {
				ok, err = s.s1.UpdateLeaf(VA(a), flip)
				rok, rerr = s.r1.updateLeaf(a, flip)
			} else {
				ok, err = s.s2.UpdateLeaf(IPA(a), flip)
				rok, rerr = s.r2.updateLeaf(a, flip)
			}
			same(step, op, err, rerr)
			if ok != rok {
				t.Fatalf("step %d: UpdateLeaf found %v, model %v", step, ok, rok)
			}
		case p < 55:
			// A byte-path write into a (mostly table) frame that flips
			// AttrAPRO in one word: descriptors keep pointing where they
			// did, so both tables keep walking the same structure.
			op = "write into table frame"
			frame := anyFrame(s)
			i := uint64(rng.Intn(511))
			var cur [16]byte
			same(step, op, nil, s.ref.read(frame+PA(i*8), cur[:]))
			switch rng.Intn(3) {
			case 0:
				w := binary.LittleEndian.Uint64(cur[:8]) ^ AttrAPRO
				same(step, op, s.pm.WriteU64(frame+PA(i*8), w), s.ref.putU64(frame+PA(i*8), w))
			case 1:
				v := uint64(cur[0] ^ 0x80)
				same(step, op, s.pm.WriteUint(frame+PA(i*8), 1, v), s.ref.write(frame+PA(i*8), []byte{byte(v)}))
			default:
				// Eight bytes spanning words i and i+1; flips word i+1.
				b := append([]byte(nil), cur[4:12]...)
				b[4] ^= 0x80
				same(step, op, s.pm.Write(frame+PA(i*8+4), b), s.ref.write(frame+PA(i*8+4), b))
			}
		case p < 62:
			op = "data write"
			pa := dataPA()
			b := make([]byte, 1+rng.Intn(16))
			rng.Read(b)
			switch {
			case len(b) >= 8 && rng.Intn(2) == 0:
				v := binary.LittleEndian.Uint64(b)
				same(step, op, s.pm.WriteU64(pa, v), s.ref.putU64(pa, v))
			case len(b) >= 4 && uint64(pa)&PageMask+4 <= PageSize && rng.Intn(2) == 0:
				same(step, op, s.pm.WriteUint(pa, 4, uint64(binary.LittleEndian.Uint32(b))), s.ref.write(pa, b[:4]))
			default:
				same(step, op, s.pm.Write(pa, b), s.ref.write(pa, b))
			}
		case p < 66:
			// A read whose first touch materializes a frame: it stays
			// compact with no words and is visited as a zero page. Data
			// frames past the ones already touched are untouched here.
			op = "read touch"
			pa := dataBase + PA(8*PageSize+rng.Intn(64*PageSize))
			if s.ref.frames[uint64(pa)>>PageShift] != nil {
				break
			}
			var v uint64
			var err error
			switch rng.Intn(4) {
			case 0:
				var b [8]byte
				err = s.pm.Read(pa, b[:1+rng.Intn(8)])
				v = binary.LittleEndian.Uint64(b[:])
			case 1:
				v, err = s.pm.ReadUint(pa&^7, 1<<rng.Intn(4))
			case 2:
				v, err = s.pm.ReadU64(pa &^ 7)
			default:
				var w uint32
				w, err = s.pm.ReadU32(pa &^ 3)
				v = uint64(w)
			}
			var b [1]byte
			same(step, op, err, s.ref.read(pa, b[:]))
			if v != 0 || !compactAt(s.pm, pa) {
				t.Fatalf("step %d: first-touch read at %v = %#x, compact %v; want 0, compact",
					step, pa, v, compactAt(s.pm, pa))
			}
		case p < 76:
			op = "read"
			pa := anyFrame(s) + PA(rng.Intn(PageSize))
			if f := s.ref.frames[uint64(pa)>>PageShift]; f != nil && rng.Intn(2) == 0 {
				// Aim at the frame's non-zero words, which a compact frame
				// keeps, from a few bytes before to a few bytes past.
				var nonZero []int
				for i := 0; i < PageSize/8; i++ {
					if binary.LittleEndian.Uint64(f[i*8:]) != 0 {
						nonZero = append(nonZero, i)
					}
				}
				if len(nonZero) > 0 {
					off := max(0, min(PageSize-1, nonZero[rng.Intn(len(nonZero))]*8+rng.Intn(16)-6))
					pa = pa&^PageMask + PA(off)
				}
			} else if rng.Intn(4) == 0 {
				pa = dataPA()
			}
			var got, want [24]byte
			n := 1 + rng.Intn(len(got))
			var err error
			switch k := rng.Intn(4); {
			case k == 0:
				err = s.pm.Read(pa, got[:n])
			case k == 1 && uint64(pa)&PageMask+8 <= PageSize:
				n = 1 << rng.Intn(4)
				var v uint64
				v, err = s.pm.ReadUint(pa, n)
				binary.LittleEndian.PutUint64(got[:], v)
			case k == 2:
				n = 8
				var v uint64
				v, err = s.pm.ReadU64(pa)
				binary.LittleEndian.PutUint64(got[:], v)
			default:
				n = 4
				var v uint32
				v, err = s.pm.ReadU32(pa)
				binary.LittleEndian.PutUint32(got[:], v)
			}
			same(step, op, err, s.ref.read(pa, want[:n]))
			if got != want {
				t.Fatalf("step %d: read of %d bytes at %v = %x, model %x", step, n, pa, got[:n], want[:n])
			}
		case p < 82:
			op = "alloc"
			pa, err := s.pm.AllocFrame()
			rpa, rerr := s.ref.alloc()
			same(step, op, err, rerr)
			if pa != rpa {
				t.Fatalf("step %d: AllocFrame = %v, model %v", step, pa, rpa)
			}
			s.owned = append(s.owned, pa)
		case p < 91 && len(s.owned) > 0:
			// Table-word stores into a frame of the sequence's own, at
			// more distinct indices than the compact cap holds.
			op = "store table word"
			pa := s.owned[rng.Intn(len(s.owned))]
			i := uint64(rng.Intn(12)) * 37
			v := uint64(rng.Int63())
			if rng.Intn(4) == 0 {
				v = 0
			}
			same(step, op, s.pm.storeTableWord(pa, i, v), s.ref.putU64(pa+PA(i*8), v))
		case p < 95 && len(s.owned) > 0:
			op = "free"
			k := rng.Intn(len(s.owned))
			s.pm.FreeFrame(s.owned[k])
			s.ref.freeFrame(s.owned[k])
			s.owned = append(s.owned[:k], s.owned[k+1:]...)
		case p < 98:
			// A short-lived table: Free returns its frames in table
			// order, and later allocations reuse them.
			op = "table free"
			tmp, err := NewStage1(s.pm, 9)
			root, rerr := s.ref.alloc()
			if err != nil || rerr != nil || tmp.Root() != root {
				t.Fatalf("step %d: short-lived table root: %v, %v", step, err, rerr)
			}
			rt := &refTable{m: s.ref, root: root}
			for j := 0; j < 6; j++ {
				a, pa := addr(0)+uint64(j)*PageSize, outPA()
				same(step, op, tmp.Map(VA(a), pa, 0), rt.mapPage(a, pa, 0))
			}
			tmp.Free()
			rt.free(rt.root, 0)
		default:
			if len(sides) == 4 {
				continue
			}
			op = "fork"
			sides = append(sides, s.fork())
		}
		for _, s := range sides {
			s.check(t, step, op)
		}
	}
	compact := 0
	for _, s := range sides {
		s.pm.VisitFrames(func(pa PA, _ *[PageSize]byte) {
			if compactAt(s.pm, pa) {
				compact++
			}
		})
	}
	if compact == 0 || len(sides) < 3 {
		t.Errorf("the sequence ended with %d compact frames over %d sides; it no longer exercises compact storage across forks", compact, len(sides))
	}
}
