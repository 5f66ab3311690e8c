package core

import (
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// TestProtMapGateAndFreeBumpCodeEpochs drives the module API directly and
// checks that every mapping-mutation path advances the code-generation
// epochs, so decoded blocks can never be replayed across an lz_prot
// permission change, a gate remap, or a page-table free.
func TestProtMapGateAndFreeBumpCodeEpochs(t *testing.T) {
	r := newRig(t)
	const regionBase = mem.VA(0x4400_0000)
	region := kernel.VMA{
		Start: regionBase, End: regionBase + mem.VA(4*mem.PageSize),
		Prot: kernel.ProtRead | kernel.ProtWrite, Name: "domains",
	}
	p, err := r.m.Host.CreateProcess("epoch", kernel.Program{Extra: []kernel.VMA{region}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AS.EnsureMapped(region.Start, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	r.lz.RegisterGateEntries(p, []GateEntry{{GateID: 0, Entry: uint64(kernel.TextBase)}})
	lp, err := r.lz.EnterProcess(r.m.Host, p, true, SanTTBR)
	if err != nil {
		t.Fatal(err)
	}
	stats := r.m.CPU.Stats

	id, err := lp.Alloc()
	if err != nil {
		t.Fatal(err)
	}

	before := stats.CodeInvalidations
	if err := lp.Prot(regionBase, mem.PageSize, id, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if stats.CodeInvalidations == before {
		t.Error("lz_prot did not bump code epochs")
	}

	before = stats.CodeInvalidations
	if err := lp.MapGatePgt(id, 0); err != nil {
		t.Fatal(err)
	}
	if stats.CodeInvalidations == before {
		t.Error("lz_map_gate_pgt did not bump code epochs")
	}

	before = stats.CodeInvalidations
	if err := lp.Free(id); err != nil {
		t.Fatal(err)
	}
	if stats.CodeInvalidations == before {
		t.Error("lz_free (ASID recycle) did not bump code epochs")
	}
}

// TestMunmapRemapExecutesNewCode is the benign counterpart of the TOCTTOU
// injection pentest: a page is executed (sanitized, decoded, cached),
// unmapped, remapped at the same address and filled with different code.
// The second execution must observe the new instructions — the address
// space change flows through InvalidateVMID, which wholesale-bumps the
// epochs.
func TestMunmapRemapExecutesNewCode(t *testing.T) {
	r := newRig(t)
	const scratch = uint64(0x4300_0000)
	writeFn := func(a *arm64.Asm, ret uint16) {
		a.MovImm(1, scratch)
		a.MovImm(2, uint64(arm64.MOVZ(0, ret, 0)))
		a.Emit(arm64.STRImm(2, 1, 0, 2))
		a.MovImm(2, uint64(arm64.RET(30)))
		a.Emit(arm64.STRImm(2, 1, 4, 2))
		a.Emit(arm64.MOVReg(16, 1))
		a.Emit(arm64.BLR(16))
	}
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	hvcCall(a, kernel.SysMmap, scratch, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec))
	writeFn(a, 1)
	a.Emit(arm64.MOVReg(19, 0)) // x19 = 1 from the first version
	hvcCall(a, kernel.SysMunmap, scratch, mem.PageSize)
	hvcCall(a, kernel.SysMmap, scratch, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec))
	writeFn(a, 2)
	// Exit with the second version's return value.
	a.Emit(arm64.MOVReg(0, 0))
	a.MovImm(8, kernel.SysExit)
	a.Emit(arm64.HVC(HVCSyscall))
	p := r.run(t, a, nil)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if p.ExitCode != 2 {
		t.Errorf("exit code %d, want 2 (stale decoded code executed after munmap/remap)", p.ExitCode)
	}
	if r.m.CPU.Stats.CodeInvalidations == 0 {
		t.Error("no code invalidations recorded across munmap/remap")
	}
}

// TestGetrandomIntoSanitizedTextFaults is the LightZone side of the
// kernel's user-copy rule: a SanTTBR process calls a sanitized function
// twice, asks getrandom to overwrite its first word, and calls it again.
// The kernel must refuse with EFAULT rather than write a word the
// sanitizer never saw behind W⊕X and the code caches, so the process runs
// identically, with no violation, with the decode cache on and off.
func TestGetrandomIntoSanitizedTextFaults(t *testing.T) {
	a := arm64.NewAsm()
	a.B("main")
	a.Label("fn") // TextBase + 4
	a.Emit(arm64.ADDImm(20, 20, 1, false))
	a.Emit(arm64.RET(30))
	a.Label("main")
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	a.BL("fn")
	a.BL("fn")
	hvcCall(a, kernel.SysGetrandom, uint64(kernel.TextBase)+4, 4)
	a.Emit(arm64.MOVReg(19, 0))
	a.BL("fn")
	hvcCall(a, kernel.SysExit, 0)
	type result struct {
		x      [32]uint64
		cycles int64
	}
	run := func(cache bool) result {
		r := newRig(t)
		r.m.CPU.SetDecodeCache(cache)
		p := r.run(t, a, nil)
		if p.Killed {
			t.Fatalf("decode cache %v: killed: %s", cache, p.KillMsg)
		}
		if lp, ok := r.lz.ProcState(p); !ok || lp.Violations != 0 {
			t.Errorf("decode cache %v: LightZone state %v, violations %d", cache, ok, lp.Violations)
		}
		return result{x: r.m.CPU.X, cycles: r.m.CPU.Cycles}
	}
	on, off := run(true), run(false)
	if efault := uint64(1<<64 - kernel.EFAULT); on.x[19] != efault {
		t.Errorf("getrandom into sanitized text returned %#x, want -EFAULT", on.x[19])
	}
	if on.x[20] != 3 {
		t.Errorf("x20 = %d after three calls, want 3", on.x[20])
	}
	if on != off {
		t.Errorf("decode cache on and off diverged:\n  on  %+v\n  off %+v", on, off)
	}
}
