package kernel

import (
	"fmt"
	"slices"
	"sort"

	"lightzone/internal/mem"
)

// Prot is a VMA protection mask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// VMA is a kernel-managed virtual memory area.
type VMA struct {
	Start mem.VA
	End   mem.VA // exclusive
	Prot  Prot
	Name  string
	Huge  bool // back with 2MB mappings
}

// Contains reports whether va falls inside the area.
func (v *VMA) Contains(va mem.VA) bool { return va >= v.Start && va < v.End }

// AddressSpace is a process address space: the kernel-managed stage-1 page
// table plus the VMA list driving demand paging.
type AddressSpace struct {
	S1   *mem.Stage1
	pm   *mem.PhysMem
	vmas []VMA

	// DataBytes counts frames demand-mapped for this address space
	// (the paper's application memory consumption metric).
	DataBytes uint64

	// UnmapNotify, when set, is called whenever the kernel unmaps a page
	// so LightZone can synchronize its duplicated page tables (§5.1.2:
	// "their page tables are synchronized with the kernel-managed page
	// tables").
	UnmapNotify func(va mem.VA)

	// ProtNotify, when set, is called whenever the kernel changes a
	// mapped page's protection (mprotect), for the same synchronization.
	ProtNotify func(va mem.VA)
}

// NewAddressSpace creates an empty address space with the given ASID.
func NewAddressSpace(pm *mem.PhysMem, asid uint16) (*AddressSpace, error) {
	s1, err := mem.NewStage1(pm, asid)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{S1: s1, pm: pm}, nil
}

// AddVMA registers a region. Overlapping regions are rejected.
func (as *AddressSpace) AddVMA(v VMA) error {
	if v.Start >= v.End || uint64(v.Start)&mem.PageMask != 0 || uint64(v.End)&mem.PageMask != 0 {
		return fmt.Errorf("bad VMA [%v, %v)", v.Start, v.End)
	}
	for i := range as.vmas {
		if v.Start < as.vmas[i].End && as.vmas[i].Start < v.End {
			return fmt.Errorf("VMA [%v, %v) overlaps %q", v.Start, v.End, as.vmas[i].Name)
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return nil
}

// FindVMA returns the VMA containing va, or nil.
func (as *AddressSpace) FindVMA(va mem.VA) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Contains(va) {
		return &as.vmas[i]
	}
	return nil
}

// VMAs returns a copy of the VMA list.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// splitAt cuts the VMA that straddles va in two at va, so that munmap and
// mprotect act on whole VMAs.
func (as *AddressSpace) splitAt(va mem.VA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i == len(as.vmas) || as.vmas[i].Start >= va {
		return
	}
	tail := as.vmas[i]
	tail.Start = va
	as.vmas[i].End = va
	as.vmas = slices.Insert(as.vmas, i+1, tail)
}

// RemoveVMA unmaps [start, end) and drops covering VMAs (munmap). Pages
// already faulted in are unmapped and their frames freed; LightZone is
// notified per page so duplicated tables stay synchronized.
func (as *AddressSpace) RemoveVMA(start, end mem.VA) error {
	if uint64(start)&mem.PageMask != 0 {
		return fmt.Errorf("unaligned munmap start %v", start)
	}
	as.splitAt(start)
	as.splitAt(end)
	as.vmas = slices.DeleteFunc(as.vmas, func(v VMA) bool { return v.Start >= start && v.End <= end })
	for va := start; va < end; va += mem.PageSize {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if !res.Found {
			continue
		}
		if _, err := as.S1.Unmap(va); err != nil {
			return err
		}
		as.pm.FreeFrame(res.PA &^ mem.PA(mem.PageMask))
		if as.DataBytes >= mem.PageSize {
			as.DataBytes -= mem.PageSize
		}
		if as.UnmapNotify != nil {
			as.UnmapNotify(va)
		}
	}
	return nil
}

// SetProt sets the protection of [start, end) (mprotect's bookkeeping),
// splitting a VMA that straddles either end, so that later demand faults
// and the kernel's user copies see the protection the page tables hold.
func (as *AddressSpace) SetProt(start, end mem.VA, prot Prot) {
	as.splitAt(start)
	as.splitAt(end)
	for i := range as.vmas {
		if as.vmas[i].Start >= start && as.vmas[i].End <= end {
			as.vmas[i].Prot = prot
		}
	}
}

// attrsForProt converts VMA protection to stage-1 PTE attributes for a
// user-process mapping in the kernel-managed table: user pages (AP[1] set),
// ASID-tagged, execute-never for the kernel (PXN always — user code must
// never run privileged in the kernel's own table).
func attrsForProt(p Prot) uint64 {
	attrs := mem.AttrAPUser | mem.AttrNG | mem.AttrPXN
	if p&ProtWrite == 0 {
		attrs |= mem.AttrAPRO
	}
	if p&ProtExec == 0 {
		attrs |= mem.AttrUXN
	}
	return attrs
}

// DemandMap handles a translation fault at va: if a VMA covers it, allocate
// and map a frame (or a 2MB block for huge VMAs) and return true.
func (as *AddressSpace) DemandMap(va mem.VA) (bool, error) {
	v := as.FindVMA(va)
	if v == nil {
		return false, nil
	}
	if v.Huge {
		base := mem.VA(uint64(va) &^ uint64(mem.HugePageMask))
		pa, err := as.pm.AllocContiguous(mem.HugePageSize / mem.PageSize)
		if err != nil {
			return false, err
		}
		if err := as.S1.MapBlock(base, pa, attrsForProt(v.Prot)); err != nil {
			return false, err
		}
		as.DataBytes += mem.HugePageSize
		return true, nil
	}
	page := mem.PageAlignDown(va)
	pa, err := as.pm.AllocFrame()
	if err != nil {
		return false, err
	}
	if err := as.S1.Map(page, pa, attrsForProt(v.Prot)); err != nil {
		return false, err
	}
	as.DataBytes += mem.PageSize
	return true, nil
}

// EnsureMapped pre-faults every page of [start, start+len) (used by program
// loading and workload setup).
func (as *AddressSpace) EnsureMapped(start mem.VA, length uint64) error {
	end := mem.VA(mem.PageAlignUp(uint64(start) + length))
	step := mem.VA(mem.PageSize)
	for va := mem.PageAlignDown(start); va < end; va += step {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if res.Found {
			continue
		}
		ok, err := as.DemandMap(va)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no VMA covers %v", va)
		}
	}
	return nil
}

// WriteVA copies buf into the address space at va, faulting pages in. It
// checks no VMA protection: the program loader fills r-x text with it.
func (as *AddressSpace) WriteVA(va mem.VA, buf []byte) error {
	if err := as.EnsureMapped(va, uint64(len(buf))); err != nil {
		return err
	}
	return as.copyVA(va, buf, true)
}

// ReadVA copies len(buf) bytes out of the address space at va, without
// faulting pages in or checking VMA protection.
func (as *AddressSpace) ReadVA(va mem.VA, buf []byte) error {
	return as.copyVA(va, buf, false)
}

// userCopy is the kernel's access to user memory on a process's behalf:
// it copies len(buf) bytes into user memory at va when write is set
// (getrandom(2)), out of it otherwise (write(2)). Every page of the range
// must lie in a VMA that allows the access: ProtRead to read; ProtWrite
// and not ProtExec to write, so the kernel never writes bytes that may
// execute and never needs a code-epoch bump (DESIGN §2, §5). Untouched
// pages are faulted in, as Linux's uaccess faults do. A refused range is
// an error, which the syscall returns as EFAULT.
func (as *AddressSpace) userCopy(va mem.VA, buf []byte, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	end := va + mem.VA(len(buf))
	if end < va {
		return fmt.Errorf("user range at %v wraps", va)
	}
	need, deny := ProtRead, Prot(0)
	if write {
		need, deny = ProtWrite, ProtExec
	}
	for at := va; at < end; {
		v := as.FindVMA(at)
		if v == nil || v.Prot&need == 0 || v.Prot&deny != 0 {
			return fmt.Errorf("user access to %v refused", at)
		}
		at = v.End
	}
	if err := as.EnsureMapped(va, uint64(len(buf))); err != nil {
		return err
	}
	return as.copyVA(va, buf, write)
}

// copyVA moves len(buf) bytes between buf and the mapped address space at
// va, one page or 2MB block at a time: into memory when write is set, out
// of it otherwise.
func (as *AddressSpace) copyVA(va mem.VA, buf []byte, write bool) error {
	for len(buf) > 0 {
		res, err := as.S1.Walk(va)
		if err != nil {
			return err
		}
		if !res.Found {
			return fmt.Errorf("unmapped %v", va)
		}
		n := int(mem.PageSize - uint64(va)&mem.PageMask)
		if res.BlockShift == mem.HugePageShift {
			n = int(mem.HugePageSize - uint64(va)&mem.HugePageMask)
		}
		n = min(n, len(buf))
		if write {
			err = as.pm.Write(res.PA, buf[:n])
		} else {
			err = as.pm.Read(res.PA, buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		va += mem.VA(n)
	}
	return nil
}
