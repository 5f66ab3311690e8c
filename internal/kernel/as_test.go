package kernel

import (
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

func newTestAS(t *testing.T) *AddressSpace {
	t.Helper()
	pm := mem.NewPhysMem(128 << 20)
	as, err := NewAddressSpace(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestVMAOverlapRejected(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x1000, End: 0x5000, Prot: ProtRead}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddVMA(VMA{Start: 0x4000, End: 0x8000, Prot: ProtRead}); err == nil {
		t.Error("overlapping VMA accepted")
	}
	if err := as.AddVMA(VMA{Start: 0x5000, End: 0x8000, Prot: ProtRead}); err != nil {
		t.Errorf("adjacent VMA rejected: %v", err)
	}
}

func TestVMAValidation(t *testing.T) {
	as := newTestAS(t)
	for _, v := range []VMA{
		{Start: 0x2000, End: 0x1000}, // inverted
		{Start: 0x1001, End: 0x2000}, // unaligned start
		{Start: 0x1000, End: 0x2001}, // unaligned end
		{Start: 0x1000, End: 0x1000}, // empty
	} {
		if err := as.AddVMA(v); err == nil {
			t.Errorf("bad VMA accepted: %+v", v)
		}
	}
}

func TestFindVMABinarySearch(t *testing.T) {
	as := newTestAS(t)
	for i := 0; i < 16; i++ {
		start := mem.VA(0x10000 + i*0x10000)
		if err := as.AddVMA(VMA{Start: start, End: start + 0x1000, Prot: ProtRead, Name: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	if v := as.FindVMA(0x50000); v == nil || v.Start != 0x50000 {
		t.Errorf("FindVMA(0x50000) = %+v", v)
	}
	if v := as.FindVMA(0x50800); v == nil {
		t.Error("interior address missed")
	}
	if v := as.FindVMA(0x51000); v != nil {
		t.Errorf("end-exclusive violated: %+v", v)
	}
	if v := as.FindVMA(0x9000); v != nil {
		t.Errorf("gap hit: %+v", v)
	}
}

func TestRemoveVMASplitsRegions(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Name: "big"}); err != nil {
		t.Fatal(err)
	}
	if err := as.EnsureMapped(0x10000, 0x10000); err != nil {
		t.Fatal(err)
	}
	dataBefore := as.DataBytes
	// Punch a hole in the middle.
	if err := as.RemoveVMA(0x14000, 0x18000); err != nil {
		t.Fatal(err)
	}
	if as.FindVMA(0x15000) != nil {
		t.Error("hole still covered")
	}
	if as.FindVMA(0x12000) == nil || as.FindVMA(0x19000) == nil {
		t.Error("split halves lost")
	}
	if as.DataBytes != dataBefore-4*mem.PageSize {
		t.Errorf("DataBytes = %d, want %d", as.DataBytes, dataBefore-4*mem.PageSize)
	}
	// The unmapped pages must be gone from the page table.
	if res, _ := as.S1.Walk(0x15000); res.Found {
		t.Error("hole page still mapped")
	}
	if res, _ := as.S1.Walk(0x12000); !res.Found {
		t.Error("kept page lost")
	}
}

func TestRemoveVMATrimsEdges(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x14000, Prot: ProtRead}); err != nil {
		t.Fatal(err)
	}
	if err := as.RemoveVMA(0x10000, 0x12000); err != nil {
		t.Fatal(err)
	}
	if as.FindVMA(0x11000) != nil || as.FindVMA(0x13000) == nil {
		t.Error("head trim wrong")
	}
	if err := as.RemoveVMA(0x13000, 0x14000); err != nil {
		t.Fatal(err)
	}
	if as.FindVMA(0x13000) != nil {
		t.Error("tail trim wrong")
	}
}

func TestReadWriteVAAcrossPages(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x13000, Prot: ProtRead | ProtWrite}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*mem.PageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.WriteVA(0x10800, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadVA(0x10800, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestProtString(t *testing.T) {
	if s := (ProtRead | ProtWrite | ProtExec).String(); s != "rwx" {
		t.Errorf("rwx = %q", s)
	}
	if s := ProtRead.String(); s != "r--" {
		t.Errorf("r = %q", s)
	}
	if s := Prot(0).String(); s != "---" {
		t.Errorf("none = %q", s)
	}
}

func TestUnhandledFatalSignalKills(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	pm := mem.NewPhysMem(64 << 20)
	c := cpu.New(prof, pm)
	k := NewKernel("t", prof, pm, c, arm64.EL2)
	a := arm64.NewAsm()
	// kill(getpid, SIGSEGV) with no handler registered: fatal.
	a.MovImm(8, SysGetpid)
	a.Emit(arm64.SVC(0))
	a.MovImm(1, SIGSEGV)
	a.MovImm(8, SysKill)
	a.Emit(arm64.SVC(0))
	a.MovImm(8, SysGetpid) // the delivery point is the next trap
	a.Emit(arm64.SVC(0))
	a.MovImm(8, SysExit)
	a.Emit(arm64.SVC(0))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess("fatal", Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunProcess(p, 10000); err != nil {
		t.Fatal(err)
	}
	if !p.Killed || !strings.Contains(p.KillMsg, "fatal signal") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

func TestNanosleepChargesCycles(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	pm := mem.NewPhysMem(64 << 20)
	c := cpu.New(prof, pm)
	k := NewKernel("t", prof, pm, c, arm64.EL2)
	a := arm64.NewAsm()
	a.MovImm(0, 100000)
	a.MovImm(8, SysNanosleep)
	a.Emit(arm64.SVC(0))
	a.MovImm(8, SysExit)
	a.Emit(arm64.SVC(0))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess("sleep", Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunProcess(p, 1000); err != nil {
		t.Fatal(err)
	}
	if c.Cycles < 100000 {
		t.Errorf("nanosleep charged only %d cycles", c.Cycles)
	}
}

func TestMmapGapAllocation(t *testing.T) {
	prof := arm64.ProfileCortexA55()
	pm := mem.NewPhysMem(128 << 20)
	c := cpu.New(prof, pm)
	k := NewKernel("t", prof, pm, c, arm64.EL2)
	a := arm64.NewAsm()
	// Two hint-less mmaps must land at distinct, non-overlapping spots.
	a.MovImm(0, 0)
	a.MovImm(1, 3*mem.PageSize)
	a.MovImm(2, uint64(ProtRead|ProtWrite))
	a.MovImm(8, SysMmap)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(19, 0))
	a.MovImm(0, 0)
	a.MovImm(1, mem.PageSize)
	a.MovImm(2, uint64(ProtRead|ProtWrite))
	a.MovImm(8, SysMmap)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(20, 0))
	a.MovImm(8, SysExit)
	a.Emit(arm64.SVC(0))
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess("mmap", Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunProcess(p, 10000); err != nil {
		t.Fatal(err)
	}
	first, second := c.R(19), c.R(20)
	if first == 0 || second == 0 {
		t.Fatalf("mmap returned %#x, %#x", first, second)
	}
	if second < first+3*mem.PageSize {
		t.Errorf("second mapping %#x overlaps first %#x", second, first)
	}
}

func TestBrkGrowsHeap(t *testing.T) {
	k := newTestKernel(t)
	a := arm64.NewAsm()
	svc(a, SysBrk, 0) // query
	a.Emit(arm64.MOVReg(19, 0))
	// Grow by 2 pages and touch the new memory.
	a.Emit(arm64.MOVReg(0, 19))
	a.MovImm(1, 2*mem.PageSize)
	a.Emit(arm64.ADDReg(0, 0, 1))
	a.MovImm(8, SysBrk)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(20, 0))
	a.MovImm(2, 0x5A)
	a.Emit(arm64.STRImm(2, 19, 8, 3))
	a.Emit(arm64.LDRImm(21, 19, 8, 3))
	svc(a, SysExit, 0)
	p := buildAndRun(t, k, a)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if k.CPU.R(19) != uint64(HeapBase) {
		t.Errorf("initial brk = %#x", k.CPU.R(19))
	}
	if k.CPU.R(20) != uint64(HeapBase)+2*mem.PageSize {
		t.Errorf("grown brk = %#x", k.CPU.R(20))
	}
	if k.CPU.R(21) != 0x5A {
		t.Errorf("heap readback = %#x", k.CPU.R(21))
	}
}

func TestGetrandomDeterministic(t *testing.T) {
	k := newTestKernel(t)
	a := arm64.NewAsm()
	svc(a, SysGetrandom, uint64(DataBase), 16)
	a.Emit(arm64.MOVReg(19, 0))
	a.MovImm(1, uint64(DataBase))
	a.Emit(arm64.LDRImm(20, 1, 0, 3))
	svc(a, SysExit, 0)
	p := buildAndRun(t, k, a)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if k.CPU.R(19) != 16 {
		t.Errorf("getrandom returned %d", k.CPU.R(19))
	}
	if k.CPU.R(20) == 0 {
		t.Error("random bytes all zero")
	}
}

func TestClockGettimeMonotonic(t *testing.T) {
	k := newTestKernel(t)
	a := arm64.NewAsm()
	svc(a, SysClockGettime)
	a.Emit(arm64.MOVReg(19, 0))
	svc(a, SysNanosleep, 50000)
	svc(a, SysClockGettime)
	a.Emit(arm64.MOVReg(20, 0))
	svc(a, SysExit, 0)
	p := buildAndRun(t, k, a)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if k.CPU.R(20) <= k.CPU.R(19) {
		t.Errorf("clock not monotonic: %d then %d", k.CPU.R(19), k.CPU.R(20))
	}
}

// TestUserCopyChecksVMAProtection pins the kernel's user-copy rules: every
// page of the range must lie in a VMA, reads need ProtRead, writes need
// ProtWrite and no ProtExec, a refused copy touches nothing, and an
// allowed copy faults untouched pages in.
func TestUserCopyChecksVMAProtection(t *testing.T) {
	as := newTestAS(t)
	for _, v := range []VMA{
		{Start: 0x10000, Prot: ProtRead | ProtWrite},
		{Start: 0x11000, Prot: ProtRead | ProtExec},
		{Start: 0x12000, Prot: ProtRead | ProtWrite | ProtExec},
		{Start: 0x13000, Prot: ProtRead},
		{Start: 0x14000, Prot: 0},
		// 0x15000 lies in no VMA.
		{Start: 0x16000, Prot: ProtRead | ProtWrite},
	} {
		v.End = v.Start + mem.VA(mem.PageSize)
		if err := as.AddVMA(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		va          mem.VA
		read, write bool
	}{
		{0x10000, true, true},
		{0x11000, true, false},
		{0x12000, true, false},
		{0x13000, true, false},
		{0x14000, false, false},
		{0x15000, false, false},
		{0x10ff8, true, false},  // rw page into the r-x page
		{0x14ff8, false, false}, // PROT_NONE page into the hole
		{0x16ff8, false, false}, // rw page into the end of the VMAs
	} {
		buf := make([]byte, 16)
		if err := as.userCopy(c.va, buf, false); (err == nil) != c.read {
			t.Errorf("read at %v: err %v, want allowed=%v", c.va, err, c.read)
		}
		for i := range buf {
			buf[i] = 0xee
		}
		if err := as.userCopy(c.va, buf, true); (err == nil) != c.write {
			t.Errorf("write at %v: err %v, want allowed=%v", c.va, err, c.write)
		}
	}
	// The refused write that straddled into r-x text changed neither page.
	got := make([]byte, 16)
	if err := as.ReadVA(0x10ff8, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d of a refused write landed: %#x", i, b)
		}
	}
	// Allowed reads faulted their pages in; the first write landed.
	if err := as.ReadVA(0x13000, got); err != nil {
		t.Errorf("read-only page not faulted in by the copy: %v", err)
	}
	if err := as.ReadVA(0x10000, got); err != nil || got[0] != 0xee {
		t.Errorf("allowed write: %v, first byte %#x", err, got[0])
	}
	// An empty copy checks nothing, as write(fd, p, 0) does on Linux.
	if err := as.userCopy(0x15000, nil, true); err != nil {
		t.Errorf("empty copy into the hole: %v", err)
	}
}

// TestSetProtSplitsStraddledVMA checks that mprotect of one page inside a
// larger VMA changes that page's VMA protection alone, so demand faults and
// the kernel's user copies see what the page tables hold.
func TestSetProtSplitsStraddledVMA(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddVMA(VMA{Start: 0x10000, End: 0x13000, Prot: ProtRead | ProtWrite, Name: "rw"}); err != nil {
		t.Fatal(err)
	}
	as.SetProt(0x11000, 0x12000, ProtRead|ProtExec)
	for _, c := range []struct {
		va   mem.VA
		prot Prot
	}{{0x10000, ProtRead | ProtWrite}, {0x11000, ProtRead | ProtExec}, {0x12000, ProtRead | ProtWrite}} {
		if v := as.FindVMA(c.va); v == nil || v.Prot != c.prot || v.Name != "rw" {
			t.Errorf("VMA at %v = %+v, want prot %v", c.va, v, c.prot)
		}
	}
	if n := len(as.VMAs()); n != 3 {
		t.Errorf("%d VMAs after the split, want 3", n)
	}
	if err := as.userCopy(0x11000, make([]byte, 4), true); err == nil {
		t.Error("kernel write into the page made executable was allowed")
	}
	if err := as.userCopy(0x12000, make([]byte, 4), true); err != nil {
		t.Errorf("kernel write into the rw tail: %v", err)
	}
}
