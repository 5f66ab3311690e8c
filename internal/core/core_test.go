package core

import (
	"strings"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// testRig is a booted host machine with the LightZone module installed.
type testRig struct {
	m  *hyp.Machine
	lz *LightZone
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	m := hyp.NewMachine(arm64.ProfileCortexA55(), 512<<20)
	lz := New(m.Hyp)
	lz.Install(m.Host)
	return &testRig{m: m, lz: lz}
}

// svcCall emits a pre-enter syscall (SVC path).
func svcCall(a *arm64.Asm, num uint64, args ...uint64) {
	for i, arg := range args {
		a.MovImm(uint8(i), arg)
	}
	a.MovImm(8, num)
	a.Emit(arm64.SVC(0))
}

// hvcCall emits a post-enter syscall through the API library's HVC fast
// path.
func hvcCall(a *arm64.Asm, num uint64, args ...uint64) {
	for i, arg := range args {
		a.MovImm(uint8(i), arg)
	}
	a.MovImm(8, num)
	a.Emit(arm64.HVC(HVCSyscall))
}

func (r *testRig) run(t *testing.T, a *arm64.Asm, entries []GateEntry, extra ...kernel.VMA) *kernel.Process {
	t.Helper()
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.m.Host.CreateProcess("lzapp", kernel.Program{Text: words, Data: make([]byte, 64), Extra: extra})
	if err != nil {
		t.Fatal(err)
	}
	// Resolve gate-entry labels against the text base.
	resolved := make([]GateEntry, len(entries))
	for i, e := range entries {
		resolved[i] = GateEntry{GateID: e.GateID, Entry: uint64(kernel.TextBase) + e.Entry}
	}
	r.lz.RegisterGateEntries(p, resolved)
	if err := r.m.RunHostProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnterAndRunInKernelMode(t *testing.T) {
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	// Now at EL1 inside the per-process VM. Touch data (demand paged
	// through the LightZone tables), then syscalls via both paths.
	a.MovImm(1, uint64(kernel.DataBase))
	a.MovImm(2, 0x77)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.LDRImm(3, 1, 0, 3))
	hvcCall(a, kernel.SysGetpid)
	a.Emit(arm64.MOVReg(19, 0))
	// Raw SVC from a "pre-compiled binary": forwarded by the trap stub.
	a.MovImm(8, kernel.SysGettid)
	a.Emit(arm64.SVC(0))
	a.Emit(arm64.MOVReg(20, 0))
	hvcCall(a, kernel.SysExit, 7)
	p := r.run(t, a, nil)

	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if p.ExitCode != 7 {
		t.Errorf("exit code = %d", p.ExitCode)
	}
	c := r.m.CPU
	if c.R(3) != 0x77 {
		t.Errorf("data readback = %#x", c.R(3))
	}
	if c.R(19) != uint64(p.PID) {
		t.Errorf("getpid via hvc = %d", c.R(19))
	}
	if c.R(20) == 0 {
		t.Errorf("gettid via forwarded svc = %d", c.R(20))
	}
	lp, ok := r.lz.ProcState(p)
	if !ok {
		t.Fatal("no LZ state")
	}
	if lp.Violations != 0 {
		t.Errorf("violations = %d", lp.Violations)
	}
}

func TestPANIsolationEndToEnd(t *testing.T) {
	// Positive path: protect a page as a PAN (user) domain, access it
	// with PAN clear, then re-enable PAN and exit cleanly.
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 0, uint64(SanPAN))
	hvcCall(a, SysLZProt, uint64(kernel.DataBase), mem.PageSize, 0, PermRead|PermWrite|PermUser)
	a.MovImm(1, uint64(kernel.DataBase))
	a.MovImm(2, 0x42)
	EmitSetPAN(a, 0)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.LDRImm(3, 1, 0, 3))
	EmitSetPAN(a, 1)
	hvcCall(a, kernel.SysExit, 1)
	p := r.run(t, a, nil)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if r.m.CPU.R(3) != 0x42 {
		t.Errorf("protected read = %#x", r.m.CPU.R(3))
	}
}

func TestPANViolationKillsProcess(t *testing.T) {
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 0, uint64(SanPAN))
	hvcCall(a, SysLZProt, uint64(kernel.DataBase), mem.PageSize, 0, PermRead|PermWrite|PermUser)
	a.MovImm(1, uint64(kernel.DataBase))
	EmitSetPAN(a, 1)
	a.Emit(arm64.LDRImm(0, 1, 0, 3)) // PAN set: unauthorized
	hvcCall(a, kernel.SysExit, 0)
	p := r.run(t, a, nil)
	if !p.Killed || !strings.Contains(p.KillMsg, "PAN-protected") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

// buildListing1 builds the paper's Listing 1 shape: two mutually
// distrusting parts in separate TTBR domains plus a PAN-protected page.
func buildListing1(t *testing.T, fail bool) (*arm64.Asm, []GateEntry) {
	t.Helper()
	const (
		data0 = uint64(0x4100_0000)
		data1 = uint64(0x4200_0000)
	)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	// mmap the two regions, then allocate page tables.
	hvcCall(a, kernel.SysMmap, data0, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite))
	hvcCall(a, kernel.SysMmap, data1, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite))
	hvcCall(a, SysLZAlloc) // pgt for part 0
	a.Emit(arm64.MOVReg(21, 0))
	hvcCall(a, SysLZAlloc) // pgt for part 1
	a.Emit(arm64.MOVReg(22, 0))
	// lz_map_gate_pgt(pgt0, gate0); lz_map_gate_pgt(pgt1, gate1)
	a.Emit(arm64.MOVReg(0, 21))
	a.MovImm(1, 0)
	a.MovImm(8, SysLZMapGatePgt)
	a.Emit(arm64.HVC(HVCSyscall))
	a.Emit(arm64.MOVReg(0, 22))
	a.MovImm(1, 1)
	a.MovImm(8, SysLZMapGatePgt)
	a.Emit(arm64.HVC(HVCSyscall))
	// lz_prot(data0, pgt0, RW); lz_prot(data1, pgt1, RW)
	a.MovImm(0, data0)
	a.MovImm(1, mem.PageSize)
	a.Emit(arm64.MOVReg(2, 21))
	a.MovImm(3, PermRead|PermWrite)
	a.MovImm(8, SysLZProt)
	a.Emit(arm64.HVC(HVCSyscall))
	a.MovImm(0, data1)
	a.MovImm(1, mem.PageSize)
	a.Emit(arm64.MOVReg(2, 22))
	a.MovImm(3, PermRead|PermWrite)
	a.MovImm(8, SysLZProt)
	a.Emit(arm64.HVC(HVCSyscall))

	// Switch to domain 0 through gate 0 and write data0.
	e0 := EmitGateSwitch(a, 0, "g0")
	a.MovImm(1, data0)
	a.MovImm(2, 100)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	if fail {
		// Illegal: while in domain 0, touch data1 (mapped only by pgt1).
		a.MovImm(1, data1)
		a.Emit(arm64.LDRImm(3, 1, 0, 3))
	}
	// Switch to domain 1 through gate 1 and write data1.
	e1 := EmitGateSwitch(a, 1, "g1")
	a.MovImm(1, data1)
	a.MovImm(2, 200)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.LDRImm(23, 1, 0, 3))
	hvcCall(a, kernel.SysExit, 3)

	off0, err := a.Offset(e0)
	if err != nil {
		t.Fatal(err)
	}
	off1, err := a.Offset(e1)
	if err != nil {
		t.Fatal(err)
	}
	return a, []GateEntry{{GateID: 0, Entry: uint64(off0)}, {GateID: 1, Entry: uint64(off1)}}
}

func TestTTBRDomainSwitchingListing1(t *testing.T) {
	r := newRig(t)
	a, entries := buildListing1(t, false)
	p := r.run(t, a, entries)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if p.ExitCode != 3 {
		t.Errorf("exit code = %d", p.ExitCode)
	}
	if r.m.CPU.R(23) != 200 {
		t.Errorf("data1 readback = %d", r.m.CPU.R(23))
	}
	lp, _ := r.lz.ProcState(p)
	if lp.NumPageTables() != 3 { // base + two domains
		t.Errorf("page tables = %d", lp.NumPageTables())
	}
}

func TestTTBRCrossDomainAccessKills(t *testing.T) {
	r := newRig(t)
	a, entries := buildListing1(t, true)
	p := r.run(t, a, entries)
	if !p.Killed || !strings.Contains(p.KillMsg, "not mapped by current page table") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

func TestGateRejectsWrongLinkRegister(t *testing.T) {
	// Control-flow hijack: jump to the gate with a forged return address
	// (not the registered entry). The gate's ② check must catch it.
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	hvcCall(a, SysLZAlloc)
	a.Emit(arm64.MOVReg(21, 0))
	a.Emit(arm64.MOVReg(0, 21))
	a.MovImm(1, 0)
	a.MovImm(8, SysLZMapGatePgt)
	a.Emit(arm64.HVC(HVCSyscall))
	// Hijack: x30 points somewhere else entirely.
	a.MovImm(17, gateVA(0))
	a.MovImm(30, uint64(kernel.DataBase)) // forged entry
	a.Emit(arm64.BR(17))
	hvcCall(a, kernel.SysExit, 0)

	// Register a legitimate entry that is NOT the forged one.
	p := r.run(t, a, []GateEntry{{GateID: 0, Entry: 0x123000}})
	if !p.Killed || !strings.Contains(p.KillMsg, "call gate check failed") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

func TestGateMidEntryJumpWithCraftedRegistersKills(t *testing.T) {
	// Jump straight at the gate's MSR instruction with attacker-chosen
	// x16/x17/x18 (an evil TTBR0 value). Phase ② re-materializes the
	// table addresses from immediates, so the forged TTBR0 is caught.
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	hvcCall(a, SysLZAlloc)
	a.Emit(arm64.MOVReg(21, 0))
	a.Emit(arm64.MOVReg(0, 21))
	a.MovImm(1, 0)
	a.MovImm(8, SysLZMapGatePgt)
	a.Emit(arm64.HVC(HVCSyscall))

	// The MSR sits at a fixed offset inside the gate: find it by
	// scanning the generated gate code.
	words, err := buildGateCode(0)
	if err != nil {
		t.Fatal(err)
	}
	msrOff := -1
	for i, w := range words {
		if w == arm64.MSR(arm64.TTBR0EL1, 17) {
			msrOff = i * arm64.InsnBytes
			break
		}
	}
	if msrOff < 0 {
		t.Fatal("no MSR in gate code")
	}
	a.MovImm(17, 0xDEAD000)               // evil TTBR0
	a.MovImm(16, uint64(kernel.DataBase)) // attacker-controlled "table"
	a.Emit(arm64.MOVReg(18, 16))
	entryLabel := EmitGateSwitchAt(a, gateVA(0)+uint64(msrOff), "hijack")
	_ = entryLabel
	hvcCall(a, kernel.SysExit, 0)
	p := r.run(t, a, []GateEntry{{GateID: 0, Entry: 0}})
	if !p.Killed {
		t.Fatal("mid-gate jump with evil TTBR0 survived")
	}
	if !strings.Contains(p.KillMsg, "call gate check failed") &&
		!strings.Contains(p.KillMsg, "violation") {
		t.Errorf("msg=%q", p.KillMsg)
	}
}

func TestSanitizerBlocksSensitiveInstructionInText(t *testing.T) {
	// A pre-compiled binary carrying MSR TTBR0_EL1 must be rejected when
	// its page is first executed.
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	a.Emit(arm64.MSR(arm64.TTBR0EL1, 0)) // sensitive, outside any gate
	hvcCall(a, kernel.SysExit, 0)
	p := r.run(t, a, nil)
	if !p.Killed || !strings.Contains(p.KillMsg, "sanitizer") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

func TestSanitizerPANPolicyBlocksLDTR(t *testing.T) {
	for _, word := range []uint32{
		arm64.LDTR(0, 1, 0, 3), // LDTR x0, [x1]
		0xb8800820,             // LDTRSW x0, [x1]: a form the decoder does not model
	} {
		r := newRig(t)
		a := arm64.NewAsm()
		svcCall(a, SysLZEnter, 0, uint64(SanPAN))
		a.MovImm(1, uint64(kernel.DataBase))
		a.Emit(word) // would bypass PAN
		hvcCall(a, kernel.SysExit, 0)
		p := r.run(t, a, nil)
		if !p.Killed || !strings.Contains(p.KillMsg, "sanitizer") || !strings.Contains(p.KillMsg, "bypasses PAN") {
			t.Errorf("%#08x: killed=%v msg=%q", word, p.Killed, p.KillMsg)
		}
	}
}

func TestTTBRPolicyAllowsLDTR(t *testing.T) {
	// Under policy ① the sanitizer admits LDTR/STTR. Semantically they
	// perform EL0-permission accesses, so they can read user-marked
	// (PAN-protected) pages even with PAN set — the exact bypass that
	// makes Table 3 forbid them under policy ②.
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	hvcCall(a, SysLZProt, uint64(kernel.DataBase), mem.PageSize, 0, PermRead|PermWrite|PermUser)
	a.MovImm(1, uint64(kernel.DataBase))
	a.MovImm(2, 9)
	EmitSetPAN(a, 0)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	EmitSetPAN(a, 1)
	a.Emit(arm64.LDTR(3, 1, 0, 3)) // reads despite PAN: policy ① permits
	hvcCall(a, kernel.SysExit, 0)
	p := r.run(t, a, nil)
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if r.m.CPU.R(3) != 9 {
		t.Errorf("LDTR read %d, want 9", r.m.CPU.R(3))
	}
}

func TestLDTRToKernelPageKillsUnderTTBRPolicy(t *testing.T) {
	// LDTR aimed at an ordinary (kernel-marked) page permission-faults
	// and the module terminates the process instead of looping.
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	a.MovImm(1, uint64(kernel.DataBase))
	a.MovImm(2, 9)
	a.Emit(arm64.STRImm(2, 1, 0, 3)) // fault the page in
	a.Emit(arm64.LDTR(3, 1, 0, 3))
	hvcCall(a, kernel.SysExit, 0)
	p := r.run(t, a, nil)
	if !p.Killed || !strings.Contains(p.KillMsg, "permission fault") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
}

func TestWXTOCTTOUInjectionBlocked(t *testing.T) {
	// TOCTTOU: execute a clean page, then write a sensitive instruction
	// into it, then jump back in. Break-before-make plus re-sanitization
	// must catch the injected instruction, with the reason of its Table 3
	// row.
	for _, tc := range []struct {
		name     string
		scalable uint64
		policy   SanPolicy
		injected uint32
		reason   string
	}{
		{"ttbr tlbi", 1, SanTTBR, arm64.TLBIVMALLE1(), "tlb maintenance"},
		{"pan ldtrsw", 0, SanPAN, 0xb8800820, "unprivileged load/store bypasses PAN"}, // LDTRSW x0, [x1]
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			const scratch = uint64(0x4300_0000)
			a := arm64.NewAsm()
			svcCall(a, SysLZEnter, tc.scalable, uint64(tc.policy))
			hvcCall(a, kernel.SysMmap, scratch, mem.PageSize, uint64(kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec))
			// Write a benign function {MOV x0,#1; RET} and call it.
			a.MovImm(1, scratch)
			a.MovImm(2, uint64(arm64.MOVZ(0, 1, 0)))
			a.Emit(arm64.STRImm(2, 1, 0, 2))
			a.MovImm(2, uint64(arm64.RET(30)))
			a.Emit(arm64.STRImm(2, 1, 4, 2))
			a.Emit(arm64.MOVReg(16, 1))
			a.Emit(arm64.BLR(16))
			// Now inject the sensitive word over the first one and call
			// again.
			a.MovImm(1, scratch)
			a.MovImm(2, uint64(tc.injected))
			a.Emit(arm64.STRImm(2, 1, 0, 2))
			a.Emit(arm64.MOVReg(16, 1))
			a.Emit(arm64.BLR(16))
			hvcCall(a, kernel.SysExit, 0)
			p := r.run(t, a, nil)
			if !p.Killed || !strings.Contains(p.KillMsg, "sanitizer") || !strings.Contains(p.KillMsg, tc.reason) {
				t.Errorf("killed=%v msg=%q, want the sanitizer's %q", p.Killed, p.KillMsg, tc.reason)
			}
			// The first call cached decoded blocks for the scratch page;
			// the injection store must have invalidated them so the
			// second call was re-fetched (and re-sanitized), never
			// replayed from the decode cache.
			if r.m.CPU.Stats.CodeInvalidations == 0 {
				t.Error("TOCTTOU injection did not invalidate cached decodes")
			}
		})
	}
}

// TestEnterRefusesUndefinedPolicy pins lz_enter's insn_san check: the
// argument is 64 bits wide, and a value above SanOverlay (including one
// whose low byte names a policy) returns -1 and leaves the process outside
// LightZone instead of truncating to a policy.
func TestEnterRefusesUndefinedPolicy(t *testing.T) {
	for _, san := range []uint64{0, 1, 2, 3, 4, 0x100, 0x102} {
		r := newRig(t)
		a := arm64.NewAsm()
		svcCall(a, SysLZEnter, 1, san)
		a.Emit(arm64.MOVReg(19, 0))
		svcCall(a, kernel.SysExit, 0)
		p := r.run(t, a, nil)
		entered := san <= uint64(SanOverlay)
		_, inLZ := r.lz.ProcState(p)
		if p.Killed || inLZ != entered || (p.LZ != nil) != entered || (r.m.CPU.R(19) == lzErr()) == entered {
			t.Errorf("insn_san %#x: killed=%v in lightzone=%v x0=%#x, want entered=%v",
				san, p.Killed, inLZ, r.m.CPU.R(19), entered)
		}
	}
	r := newRig(t)
	p, err := r.m.Host.CreateProcess("direct", kernel.Program{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.lz.EnterProcess(r.m.Host, p, true, SanOverlay+1); err == nil || p.LZ != nil {
		t.Errorf("EnterProcess under policy %v: err=%v, in lightzone=%v", SanOverlay+1, err, p.LZ != nil)
	}
}

func TestVirtualizationConfinesUnsanitizedProcess(t *testing.T) {
	// With the sanitizer disabled (ablation), a malicious process can
	// execute TLB maintenance — but HCR_EL2 traps confine it: the OS
	// kernel survives and the process dies (the PANIC-attack defence,
	// §3.2: LightZone's virtualization keeps privileged instructions
	// harmless even if they reach execution).
	r := newRig(t)
	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanNone))
	a.Emit(arm64.TLBIVMALLE1())
	hvcCall(a, kernel.SysExit, 0)
	p := r.run(t, a, nil)
	if !p.Killed || !strings.Contains(p.KillMsg, "sensitive system access") {
		t.Errorf("killed=%v msg=%q", p.Killed, p.KillMsg)
	}
	// The host must still be able to run another process normally.
	b := arm64.NewAsm()
	svcCall(b, kernel.SysExit, 9)
	words, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.m.Host.CreateProcess("after", kernel.Program{Text: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.RunHostProcess(p2, 1000); err != nil {
		t.Fatal(err)
	}
	if p2.Killed || p2.ExitCode != 9 {
		t.Errorf("host process after attack: killed=%v code=%d", p2.Killed, p2.ExitCode)
	}
}

func TestGuestLightZoneProcess(t *testing.T) {
	// The full nested path: a guest VM with its own kernel module and
	// the Lowvisor forwarding guest LightZone traps (§5.2.2).
	m := hyp.NewMachine(arm64.ProfileCortexA55(), 512<<20)
	vm, err := m.NewGuestVM("guest")
	if err != nil {
		t.Fatal(err)
	}
	gmod := New(m.Hyp)
	gmod.Install(vm.Kernel)
	InstallLowvisor(m.Hyp, gmod)

	a := arm64.NewAsm()
	svcCall(a, SysLZEnter, 1, uint64(SanTTBR))
	a.MovImm(1, uint64(kernel.DataBase))
	a.MovImm(2, 0x99)
	a.Emit(arm64.STRImm(2, 1, 0, 3))
	a.Emit(arm64.LDRImm(3, 1, 0, 3))
	hvcCall(a, kernel.SysGetpid)
	a.Emit(arm64.MOVReg(19, 0))
	hvcCall(a, kernel.SysExit, 4)
	words, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := vm.Kernel.CreateProcess("guest-lz", kernel.Program{Text: words, Data: make([]byte, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunGuestProcess(vm, p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Killed {
		t.Fatalf("killed: %s", p.KillMsg)
	}
	if p.ExitCode != 4 {
		t.Errorf("exit = %d", p.ExitCode)
	}
	if m.CPU.R(3) != 0x99 {
		t.Errorf("data = %#x", m.CPU.R(3))
	}
	if m.CPU.R(19) != uint64(p.PID) {
		t.Errorf("getpid = %d", m.CPU.R(19))
	}
}

// EmitGateSwitchAt is a test helper: the gate-switch macro but targeting
// an arbitrary address (attack construction).
func EmitGateSwitchAt(a *arm64.Asm, target uint64, label string) string {
	entry := "lz_entry_" + label
	a.MovImm(15, target)
	a.ADR(30, entry)
	a.Emit(arm64.BR(15))
	a.Label(entry)
	return entry
}
