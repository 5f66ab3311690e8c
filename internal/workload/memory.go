package workload

import (
	"fmt"

	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// MemoryOverheads are the §9.1-§9.3 memory numbers of one application,
// measured from the real page tables the module builds.
type MemoryOverheads struct {
	BaselineBytes uint64
	FragPct       float64
	PANPTPct      float64
	TTBRPTPct     float64
}

// memLayout is one application's protected memory layout (§9.1-§9.3).
type memLayout struct {
	name     string
	baseline uint64 // application bytes, the denominator of every percentage
	fragPct  float64
	vmas     []kernel.VMA
	// heapBase/heapSize, if heapSize > 0, is PAN-protected in both setups.
	heapBase mem.VA
	heapSize uint64
	// The domains: domCount regions of domSize bytes, domStride apart from
	// domBase, each with its own page table when scalable. Under PAN the
	// whole range is one PAN domain if panDomain is set.
	domBase            mem.VA
	domSize, domStride uint64
	domCount           int
	panDomain          bool
}

// measure builds the layout in the PAN and in the scalable configuration.
func (l memLayout) measure(plat Platform) (MemoryOverheads, error) {
	out := MemoryOverheads{BaselineBytes: l.baseline, FragPct: l.fragPct}
	var err error
	if out.PANPTPct, err = l.pageTablePct(plat, false); err != nil {
		return out, fmt.Errorf("pan layout: %w", err)
	}
	if out.TTBRPTPct, err = l.pageTablePct(plat, true); err != nil {
		return out, fmt.Errorf("ttbr layout: %w", err)
	}
	return out, nil
}

// pageTablePct builds the layout on a fresh machine in one configuration
// and returns its page-table bytes as a percentage of the baseline. The
// order of the steps fixes the order of frame allocation, and so the bytes.
func (l memLayout) pageTablePct(plat Platform, scalable bool) (float64, error) {
	env, err := NewEnv(plat)
	if err != nil {
		return 0, err
	}
	p, err := env.K.CreateProcess(l.name+"-mem", kernel.Program{Extra: l.vmas})
	if err != nil {
		return 0, err
	}
	for _, v := range l.vmas {
		if err := p.AS.EnsureMapped(v.Start, uint64(v.End-v.Start)); err != nil {
			return 0, err
		}
	}
	policy := core.SanPAN
	if scalable {
		policy = core.SanTTBR
	}
	lp, err := env.LZ.EnterProcess(env.K, p, scalable, policy)
	if err != nil {
		return 0, err
	}
	if l.heapSize > 0 {
		if err := lp.Prot(l.heapBase, l.heapSize, 0, core.PermRead|core.PermWrite|core.PermUser); err != nil {
			return 0, err
		}
	}
	switch {
	case scalable:
		for i := 0; i < l.domCount; i++ {
			id, err := lp.Alloc()
			if err != nil {
				return 0, err
			}
			if err := lp.Prot(l.domBase+mem.VA(uint64(i)*l.domStride), l.domSize, id, core.PermRead|core.PermWrite); err != nil {
				return 0, err
			}
		}
	case l.panDomain:
		if err := lp.Prot(l.domBase, uint64(l.domCount)*l.domStride, 0, core.PermRead|core.PermWrite|core.PermUser); err != nil {
			return 0, err
		}
	}
	return float64(lp.PageTableBytes()) / float64(l.baseline) * 100, nil
}

// NginxMemory measures the §9.1 memory overheads of the Nginx layout (21.7MB
// baseline, one 4KB page per AES_KEY), each key its own domain.
func NginxMemory(plat Platform) (MemoryOverheads, error) {
	const (
		appBytes = 21_700 * 1024 // 21.7MB baseline consumption
		nKeys    = 93
		keySize  = 280 // AES_KEY structure bytes
		keysBase = mem.VA(0x6000_0000)
	)
	return memLayout{
		name:     "nginx",
		baseline: appBytes,
		fragPct:  float64(nKeys*(mem.PageSize-keySize)) / float64(appBytes) * 100,
		vmas: []kernel.VMA{
			{Start: 0x4000_0000, End: 0x4000_0000 + mem.VA(appBytes-nKeys*mem.PageSize), Prot: kernel.ProtRead | kernel.ProtWrite, Name: "app"},
			{Start: keysBase, End: keysBase + mem.VA(nKeys*mem.PageSize), Prot: kernel.ProtRead | kernel.ProtWrite, Name: "keys"},
		},
		domBase: keysBase, domSize: mem.PageSize, domStride: mem.PageSize, domCount: nKeys,
		panDomain: true,
	}.measure(plat)
}

// MySQLMemory measures the §9.2 memory overheads: the application overhead
// of guard-paged per-thread stacks plus key padding, and the page-table
// overhead of the PAN and scalable configurations. The buffer pool is
// scaled to 64MB (the paper's 512.9MB instance is linear in pool size; see
// EXPERIMENTS.md).
func MySQLMemory(plat Platform) (MemoryOverheads, error) {
	const (
		poolBytes = 64 << 20
		nThreads  = 32
		stackSize = 256 * 1024
		poolBase  = mem.VA(0x4000_0000)
		stackBase = mem.VA(0x6000_0000)
	)
	appBytes := uint64(poolBytes + nThreads*stackSize)
	vmas := []kernel.VMA{{Start: poolBase, End: poolBase + poolBytes, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "bufferpool"}}
	for i := 0; i < nThreads; i++ {
		base := stackBase + mem.VA(i*2*stackSize)
		vmas = append(vmas, kernel.VMA{Start: base, End: base + stackSize, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "tstack"})
	}
	return memLayout{
		name:     "mysql",
		baseline: appBytes,
		// Application overhead: stack guard pages, HP_PTRS page rounding,
		// and per-domain alignment — one page per stack boundary plus the
		// padded heap objects (the paper reports 13.3%).
		fragPct:  float64(nThreads*2*mem.PageSize+poolBytes/8) / float64(appBytes) * 100,
		vmas:     vmas,
		heapBase: poolBase, heapSize: 8 << 20, // HP_PTRS heap data
		domBase: stackBase, domSize: stackSize, domStride: 2 * stackSize, domCount: nThreads,
	}.measure(plat)
}

// NVMMemory measures the §9.3 memory overheads on the paper's full layout
// (309MB: 128 x 2MB huge-page buffers plus 53MB of 4KB application
// memory): huge pages mean no fragmentation; the page-table overhead of
// scalable protection comes from each per-buffer table duplicating the
// application's 4KB mappings.
func NVMMemory(plat Platform) (MemoryOverheads, error) {
	const (
		nBuffers = 128 // the paper's full sweep: 128 x 2MB buffers
		bufBase  = mem.VA(0x8000_0000)
		appBase  = mem.VA(0x4000_0000)
		appBytes = 53 << 20 // 309MB total = 256MB buffers + 53MB app
	)
	return memLayout{
		name:     "nvm",
		baseline: uint64(nBuffers*mem.HugePageSize + appBytes),
		fragPct:  0, // huge pages: "no memory fragmentation issue" (§9.3)
		vmas: []kernel.VMA{
			{Start: appBase, End: appBase + appBytes, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "app"},
			{Start: bufBase, End: bufBase + mem.VA(nBuffers*mem.HugePageSize), Prot: kernel.ProtRead | kernel.ProtWrite, Name: "nvm", Huge: true},
		},
		domBase: bufBase, domSize: mem.HugePageSize, domStride: mem.HugePageSize, domCount: nBuffers,
		panDomain: true,
	}.measure(plat)
}
