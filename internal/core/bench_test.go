package core

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// BenchmarkLZAlloc times one lz_alloc plus lz_free on a scalable (TTBR)
// process whose base table maps 4MB of heap: the page-table copy that fills
// every new domain table, and its teardown.
func BenchmarkLZAlloc(b *testing.B) {
	const (
		heap = mem.VA(0x5000_0000)
		size = 4 << 20
	)
	m := hyp.NewMachine(arm64.ProfileCortexA55(), 512<<20)
	lz := New(m.Hyp)
	lz.Install(m.Host)
	p, err := m.Host.CreateProcess("lzalloc", kernel.Program{Extra: []kernel.VMA{{
		Start: heap, End: heap + size, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "heap",
	}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.AS.EnsureMapped(heap, size); err != nil {
		b.Fatal(err)
	}
	lp, err := lz.EnterProcess(m.Host, p, true, SanTTBR)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := lp.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := lp.Free(id); err != nil {
			b.Fatal(err)
		}
	}
}
