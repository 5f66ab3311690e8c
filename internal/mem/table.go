package mem

import (
	"encoding/binary"
	"fmt"
)

// WalkResult is the outcome of a page-table walk.
type WalkResult struct {
	// Desc is the leaf descriptor found (0 when !Found).
	Desc uint64
	// Level is the level at which the walk ended (leaf level, or the
	// level whose descriptor was invalid).
	Level int
	// Levels is the number of descriptor fetches performed; the CPU
	// charges TLB-walk cost per fetch.
	Levels int
	// Found reports whether a valid leaf was reached.
	Found bool
	// PA is the translated output address (leaf OA plus page offset).
	PA PA
	// BlockShift is log2 of the mapping size (12 for pages, 21 for 2MB
	// blocks).
	BlockShift uint
}

// table is the radix translation table both stages share: 4KB granule,
// 512 descriptors per table, 4KB leaves at level 3 and 2MB blocks at
// level 2. The only difference between the stages is the root's level —
// 0 for a 48-bit stage-1 VA, 1 for a 39-bit stage-2 IPA. Stage1 and Stage2
// are typed views over it that add the input-range checks and their tags.
type table struct {
	pm          *PhysMem
	root        PA
	top         int // level of the root table
	tableFrames int

	// lastLeafVA/lastLeafTable cache the level-3 table of the most
	// recently mapped 2MB region: bulk duplication (lz_alloc) maps
	// ascending addresses, so consecutive mapPage calls skip the descent.
	// Leaf tables are never reclaimed until Free, so the cache only needs
	// invalidation there and in mapBlock (which may overwrite a level-2
	// table slot with a block).
	lastLeafVA    uint64
	lastLeafTable PA
}

// newTable allocates an empty table whose root sits at level top.
func newTable(pm *PhysMem, top int) (table, error) {
	root, err := pm.AllocFrame()
	if err != nil {
		return table{}, err
	}
	return table{pm: pm, root: root, top: top, tableFrames: 1}, nil
}

// Root returns the physical address of the root table (the TTBR or
// VTTBR_EL2 base address field).
func (t *table) Root() PA { return t.root }

// TableBytes returns the memory consumed by table frames — the paper's
// page-table memory overhead metric (§9.1-§9.3).
func (t *table) TableBytes() uint64 { return uint64(t.tableFrames) * PageSize }

// descend returns the level-to table on addr's path, allocating missing
// tables on the way. onAlloc, when set, sees every new table frame as soon
// as its descriptor is installed, before the next level is allocated.
func (t *table) descend(addr uint64, to int, onAlloc func(PA)) (PA, error) {
	tab := t.root
	for level := t.top; level < to; level++ {
		next, err := t.nextTable(tab, TableIndex(addr, level), onAlloc)
		if err != nil {
			return 0, fmt.Errorf("map %#x level %d: %w", addr, level, err)
		}
		tab = next
	}
	return tab, nil
}

// nextTable returns the table pointed to by the descriptor at (tab, idx),
// allocating it when absent. Table frames are page-aligned, so the
// descriptor is read through the frame directly.
func (t *table) nextTable(tab PA, idx uint64, onAlloc func(PA)) (PA, error) {
	f, err := t.pm.frame(tab)
	if err != nil {
		return 0, err
	}
	off := idx * 8
	desc := binary.LittleEndian.Uint64(f[off : off+8])
	if desc&DescValid != 0 {
		if desc&DescTable == 0 {
			return 0, fmt.Errorf("descriptor at %v is a block, not a table", tab+PA(off))
		}
		return PA(desc & OAMask), nil
	}
	next, err := t.pm.AllocFrame()
	if err != nil {
		return 0, err
	}
	t.tableFrames++
	// Re-resolve for writing: the table frame may be copy-on-write shared
	// after a fork, and the descriptor store must land in this machine's
	// private copy.
	f, err = t.pm.frameForWrite(tab)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(f[off:off+8], uint64(next)|DescValid|DescTable)
	if onAlloc != nil {
		onAlloc(next)
	}
	return next, nil
}

// mapPage installs a 4KB leaf addr -> pa with the given attribute bits;
// valid/table/AF bits are supplied.
func (t *table) mapPage(addr uint64, pa PA, attrs uint64, onAlloc func(PA)) error {
	leaf := t.lastLeafTable
	if leaf == 0 || addr>>HugePageShift != t.lastLeafVA {
		var err error
		if leaf, err = t.descend(addr, 3, onAlloc); err != nil {
			return err
		}
		t.lastLeafVA = addr >> HugePageShift
		t.lastLeafTable = leaf
	}
	desc := uint64(pa)&OAMask | attrs | DescValid | DescTable | AttrAF
	return t.pm.WriteU64(leaf+PA(TableIndex(addr, 3)*8), desc)
}

// mapBlock installs a 2MB block at level 2.
func (t *table) mapBlock(addr uint64, pa PA, attrs uint64, onAlloc func(PA)) error {
	if addr&HugePageMask != 0 || uint64(pa)&HugePageMask != 0 {
		return fmt.Errorf("unaligned 2MB mapping %#x -> %v", addr, pa)
	}
	t.lastLeafTable = 0
	tab, err := t.descend(addr, 2, onAlloc)
	if err != nil {
		return err
	}
	desc := uint64(pa)&OAMask | attrs | DescValid | AttrAF // no DescTable: block
	return t.pm.WriteU64(tab+PA(TableIndex(addr, 2)*8), desc)
}

// walk performs a software walk for addr. The typed views pass whether
// addr is inside their input range; outside it nothing translates. Taking
// the check as an argument, rather than returning early in the view, keeps
// Stage2.Walk small enough to inline into the TLB-miss path.
func (t *table) walk(addr uint64, inRange bool) (WalkResult, error) {
	res := WalkResult{BlockShift: PageShift}
	if !inRange {
		return res, nil
	}
	tab := t.root
	for level := t.top; level <= 3; level++ {
		res.Levels++
		res.Level = level
		f, err := t.pm.frame(tab)
		if err != nil {
			return res, err
		}
		off := TableIndex(addr, level) * 8
		desc := binary.LittleEndian.Uint64(f[off : off+8])
		if desc&DescValid == 0 {
			return res, nil
		}
		if level == 3 {
			if desc&DescTable == 0 {
				return res, nil // reserved encoding
			}
			res.Desc = desc
			res.Found = true
			res.PA = PA(desc&OAMask | addr&PageMask)
			return res, nil
		}
		if desc&DescTable == 0 {
			if level != 2 {
				return res, nil // blocks only modelled at level 2
			}
			res.Desc = desc
			res.Found = true
			res.BlockShift = HugePageShift
			res.PA = PA(desc&OAMask&^uint64(HugePageMask) | addr&HugePageMask)
			return res, nil
		}
		tab = PA(desc & OAMask)
	}
	return res, nil
}

// leaf returns the descriptor slot that maps addr (a page, or a 2MB block)
// and the descriptor it holds, or 0, 0 when an intermediate table is absent.
func (t *table) leaf(addr uint64) (PA, uint64, error) {
	tab := t.root
	for level := t.top; level <= 3; level++ {
		f, err := t.pm.frame(tab)
		if err != nil {
			return 0, 0, err
		}
		off := TableIndex(addr, level) * 8
		desc := binary.LittleEndian.Uint64(f[off : off+8])
		switch {
		case level == 3:
			return tab + PA(off), desc, nil
		case desc&DescValid == 0:
			return 0, 0, nil
		case desc&DescTable == 0:
			if level == 2 {
				return tab + PA(off), desc, nil // 2MB block slot
			}
			return 0, 0, nil
		}
		tab = PA(desc & OAMask)
	}
	return 0, 0, nil
}

// unmap removes the leaf mapping for addr, reporting whether one existed.
// Table frames are not eagerly reclaimed (as in Linux).
func (t *table) unmap(addr uint64) (bool, error) {
	slot, desc, err := t.leaf(addr)
	if err != nil || desc&DescValid == 0 {
		return false, err
	}
	return true, t.pm.WriteU64(slot, 0)
}

// updateLeaf rewrites the valid leaf descriptor for addr with fn's result,
// reporting whether one existed.
func (t *table) updateLeaf(addr uint64, fn func(uint64) uint64) (bool, error) {
	slot, desc, err := t.leaf(addr)
	if err != nil || desc&DescValid == 0 {
		return false, err
	}
	return true, t.pm.WriteU64(slot, fn(desc))
}

// visit calls fn(addr, desc, size) for every valid leaf below tab (a
// level-level table covering addresses from base) in ascending address
// order. It returns false once fn has asked to stop. A is the view's
// address type, so neither view wraps fn. The typed Visit methods that call
// it are marked noinline: inlined into another package, the call into this
// generic function loses its escape summary, and every caller's fn closure
// would move to the heap.
func visit[A VA | IPA](t *table, tab PA, level int, base uint64, fn func(A, uint64, uint64) bool) (bool, error) {
	f, err := t.pm.frame(tab)
	if err != nil {
		return false, err
	}
	span := uint64(1) << (PageShift + 9*(3-level))
	for idx := uint64(0); idx < 512; idx++ {
		desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
		if desc&DescValid == 0 {
			continue
		}
		addr := base + idx*span
		// Canonicalize TTBR1-half addresses: stage-1 root indices >= 256
		// select the upper VA half, whose architectural form sign-extends
		// bit 47. A stage-2 table never reaches bit 47.
		if addr&(1<<(VABits-1)) != 0 {
			addr |= ^(uint64(1)<<VABits - 1)
		}
		switch {
		case level == 3:
			if !fn(A(addr), desc, PageSize) {
				return false, nil
			}
		case desc&DescTable == 0:
			if level == 2 && !fn(A(addr), desc, HugePageSize) {
				return false, nil
			}
		default:
			if more, err := visit(t, PA(desc&OAMask), level+1, addr, fn); !more || err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// cloneFor copies the bookkeeping for a forked machine whose physical
// memory pm2 copy-on-write shares this table's frames. The descriptors live
// in physical memory and are already covered by the fork.
func (t *table) cloneFor(pm2 *PhysMem) table {
	c := *t
	c.pm = pm2
	return c
}

// Free releases every frame owned by the table structure (not the mapped
// data frames). The table must not be used afterwards.
func (t *table) Free() {
	t.free(t.root, t.top)
	t.root = 0
	t.tableFrames = 0
	t.lastLeafTable = 0
}

// free returns tab's subtables, then tab itself, to the allocator. The
// order decides which frames later allocations reuse.
func (t *table) free(tab PA, level int) {
	if level < 3 {
		if f, err := t.pm.frame(tab); err == nil {
			for idx := uint64(0); idx < 512; idx++ {
				desc := binary.LittleEndian.Uint64(f[idx*8 : idx*8+8])
				if desc&DescValid != 0 && desc&DescTable != 0 {
					t.free(PA(desc&OAMask), level+1)
				}
			}
		}
	}
	t.pm.FreeFrame(tab)
}
