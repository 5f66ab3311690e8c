package mem

import "fmt"

// Stage2 is a 3-level stage-2 translation table, one per virtual machine,
// translating intermediate physical addresses to physical addresses: the
// shared radix table rooted at level 1 for a 39-bit IPA, tagged with a
// VMID. In LightZone, stage-2 tables restrict the memory a TTBR-mode
// kernel-mode process can reach even though it controls its own stage-1
// translation (§5.1.2), and implement the fake-physical-address
// randomization layer.
type Stage2 struct {
	table
	vmid uint16
}

// NewStage2 allocates an empty stage-2 table for the given VMID.
func NewStage2(pm *PhysMem, vmid uint16) (*Stage2, error) {
	t, err := newTable(pm, 1)
	if err != nil {
		return nil, fmt.Errorf("stage-2 root: %w", err)
	}
	return &Stage2{table: t, vmid: vmid}, nil
}

// ViewStage2 wraps an existing stage-2 table root (e.g. read from
// VTTBR_EL2) for walking.
func ViewStage2(pm *PhysMem, root PA) *Stage2 {
	return &Stage2{table: table{pm: pm, root: root, top: 1}}
}

// VMID returns the virtual machine identifier.
func (t *Stage2) VMID() uint16 { return t.vmid }

// Map installs a 4KB leaf mapping ipa -> pa with S2AP/S2XN attribute bits.
func (t *Stage2) Map(ipa IPA, pa PA, attrs uint64) error {
	if uint64(ipa)>>IPABits != 0 {
		return fmt.Errorf("IPA %v exceeds %d-bit space", ipa, IPABits)
	}
	return t.mapPage(uint64(ipa), pa, attrs, nil)
}

// MapBlock installs a 2MB block mapping at level 2.
func (t *Stage2) MapBlock(ipa IPA, pa PA, attrs uint64) error {
	return t.mapBlock(uint64(ipa), pa, attrs, nil)
}

// Walk performs a software walk for ipa.
func (t *Stage2) Walk(ipa IPA) (WalkResult, error) {
	return t.walk(uint64(ipa), uint64(ipa)>>IPABits == 0)
}

// Unmap removes the leaf mapping for ipa.
func (t *Stage2) Unmap(ipa IPA) (bool, error) { return t.unmap(uint64(ipa)) }

// UpdateLeaf rewrites the leaf descriptor for ipa (see Stage1.UpdateLeaf).
func (t *Stage2) UpdateLeaf(ipa IPA, fn func(uint64) uint64) (bool, error) {
	return t.updateLeaf(uint64(ipa), fn)
}

// Visit walks every valid leaf mapping in ascending IPA order, calling
// fn(ipa, desc, size). Visiting stops when fn returns false. Verifiers use
// it to audit the stage-2 protections the Lowvisor installed over guest
// frames.
//
//go:noinline
func (t *Stage2) Visit(fn func(ipa IPA, desc uint64, size uint64) bool) error {
	_, err := visit(&t.table, t.root, t.top, 0, fn)
	return err
}

// CloneFor snapshots the table's Go-side bookkeeping for a forked machine
// whose physical memory pm2 copy-on-write shares this table's frames (see
// Stage1.CloneFor).
func (t *Stage2) CloneFor(pm2 *PhysMem) *Stage2 {
	return &Stage2{table: t.cloneFor(pm2), vmid: t.vmid}
}
