package mem

import "fmt"

// Stage1 is a 4-level stage-1 translation table (one per address space /
// LightZone memory domain): the shared radix table rooted at level 0,
// translating 48-bit virtual addresses and tagged with an ASID.
type Stage1 struct {
	table
	asid uint16

	// OnAllocTable, when set, is invoked with the physical address of
	// every newly allocated table frame. The LightZone module uses it to
	// keep stage-1 table frames identity-mapped (read-only) in a
	// process's stage-2 table so hardware walks can fetch descriptors.
	OnAllocTable func(PA)
}

// NewStage1 allocates an empty stage-1 table.
func NewStage1(pm *PhysMem, asid uint16) (*Stage1, error) {
	t, err := newTable(pm, 0)
	if err != nil {
		return nil, fmt.Errorf("stage-1 root: %w", err)
	}
	return &Stage1{table: t, asid: asid}, nil
}

// ASID returns the address space identifier associated with the table.
// LightZone assigns each domain page table its own ASID so that TTBR
// switches need no TLB invalidation (§4.1.2).
func (t *Stage1) ASID() uint16 { return t.asid }

// Map installs a 4KB leaf mapping va -> pa with the given attribute bits
// (AttrAPUser, AttrAPRO, AttrPXN, ...). Valid/table/AF bits are supplied.
func (t *Stage1) Map(va VA, pa PA, attrs uint64) error {
	if !ValidVA(va) {
		return fmt.Errorf("non-canonical %v", va)
	}
	return t.mapPage(uint64(va), pa, attrs, t.OnAllocTable)
}

// MapBlock installs a 2MB block mapping at level 2 (huge pages, §9.3).
func (t *Stage1) MapBlock(va VA, pa PA, attrs uint64) error {
	return t.mapBlock(uint64(va), pa, attrs, t.OnAllocTable)
}

// Walk performs a software walk of the table for va.
func (t *Stage1) Walk(va VA) (WalkResult, error) { return t.walk(uint64(va), ValidVA(va)) }

// Unmap removes the leaf mapping for va, returning whether one existed.
// Table frames are not eagerly reclaimed (as in Linux).
func (t *Stage1) Unmap(va VA) (bool, error) { return t.unmap(uint64(va)) }

// UpdateLeaf atomically rewrites the leaf descriptor for va. The update
// function receives the current descriptor and returns the replacement.
// It reports whether a valid leaf existed (fn is not called otherwise).
func (t *Stage1) UpdateLeaf(va VA, fn func(uint64) uint64) (bool, error) {
	return t.updateLeaf(uint64(va), fn)
}

// Visit walks every valid leaf mapping in ascending VA order, TTBR0 range
// first, calling fn(va, desc, size). Used by the LightZone module to
// duplicate and synchronize page tables (§5.1.2). Visiting stops when fn
// returns false.
//
//go:noinline
func (t *Stage1) Visit(fn func(va VA, desc uint64, size uint64) bool) error {
	_, err := visit(&t.table, t.root, t.top, 0, fn)
	return err
}

// CloneFor snapshots the table's Go-side bookkeeping for a forked machine
// whose physical memory pm2 holds a copy of this table's frames. The
// descriptors themselves live in physical memory and are already covered by
// the fork; only the metadata needs re-pointing. OnAllocTable is left nil
// for the caller to re-wire to the fork's owner.
func (t *Stage1) CloneFor(pm2 *PhysMem) *Stage1 {
	return &Stage1{table: t.cloneFor(pm2), asid: t.asid}
}
