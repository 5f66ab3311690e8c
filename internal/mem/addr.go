// Package mem implements the simulated memory system: sparse physical
// memory with a frame allocator; one ARMv8-style radix page table (4KB
// granule) with two typed views, the 4-level stage-1 Stage1 and the
// 3-level stage-2 Stage2; attribute/permission checking including PAN and
// EL0/EL1 access-permission semantics; and an ASID/VMID tagged TLB whose
// hit/miss behaviour drives the domain-switching costs the paper measures.
package mem

import "fmt"

// Address space types. VA is a stage-1 input (virtual) address, IPA an
// intermediate physical address (stage-1 output / stage-2 input), and PA a
// real physical address.
type (
	VA  uint64
	IPA uint64
	PA  uint64
)

// Page geometry: 4KB granule, 48-bit VA, 4-level stage-1 lookup.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	// HugePageSize is the 2MB block size available at level 2 (used by
	// the NVM workload of §9.3).
	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift
	HugePageMask  = HugePageSize - 1

	// VABits is the stage-1 input address size.
	VABits = 48
	// IPABits is the stage-2 input address size.
	IPABits = 39

	// TTBR1Base is the lowest virtual address translated via TTBR1:
	// addresses with the top VA bit set. TTBR0 translates [0, 2^47).
	TTBR1Base VA = 0xFFFF_8000_0000_0000
)

// PageAlignDown rounds a virtual address down to its page base.
func PageAlignDown(va VA) VA { return va &^ VA(PageMask) }

// PageAlignUp rounds a length up to a whole number of pages.
func PageAlignUp(n uint64) uint64 { return (n + PageMask) &^ uint64(PageMask) }

// IsTTBR1 reports whether va is translated by TTBR1 (upper range).
// ARMv8 requires the upper 16 bits to be all-ones for TTBR1 addresses and
// all-zeros for TTBR0 addresses; anything else is a translation fault.
func IsTTBR1(va VA) bool { return va >= TTBR1Base }

// ValidVA reports whether va is canonical (upper 16 bits all equal).
func ValidVA(va VA) bool {
	top := uint64(va) >> VABits
	return top == 0 || top == 0xFFFF
}

// TableIndex returns the index of the descriptor that translates addr (a
// VA or an IPA) in a level-level table of the 4KB-granule format; level 3
// holds the leaves.
func TableIndex(addr uint64, level int) uint64 {
	return addr >> (PageShift + 9*(3-level)) & 0x1FF
}

func (v VA) String() string  { return fmt.Sprintf("VA(%#x)", uint64(v)) }
func (i IPA) String() string { return fmt.Sprintf("IPA(%#x)", uint64(i)) }
func (p PA) String() string  { return fmt.Sprintf("PA(%#x)", uint64(p)) }
