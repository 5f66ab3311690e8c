package workload

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/cpu"
	"lightzone/internal/hyp"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Table 4 (§8.1): cycles spent on empty trap-and-return roundtrips. Every
// row is measured by running the corresponding emulated roundtrip, not by
// reading profile constants (the HCR/VTTBR rows charge real register
// writes through the hypervisor's accessors).

// Table4Row is one measured row for one platform.
type Table4Row struct {
	Name string
	// Lo == Hi for rows without fluctuation.
	Lo, Hi int64
}

// RunTable4 measures all seven rows on one cost profile.
func RunTable4(prof *arm64.Profile) ([]Table4Row, error) {
	rows := make([]Table4Row, 0, 7)

	host, err := measureEmptySyscall(Platform{prof, false}, false)
	if err != nil {
		return nil, fmt.Errorf("host syscall: %w", err)
	}
	rows = append(rows, Table4Row{"host user mode to host hypervisor mode", host, host})

	guest, err := measureEmptySyscall(Platform{prof, true}, false)
	if err != nil {
		return nil, fmt.Errorf("guest syscall: %w", err)
	}
	rows = append(rows, Table4Row{"guest user mode to guest kernel mode", guest, guest})

	lzHost, err := measureEmptySyscall(Platform{prof, false}, true)
	if err != nil {
		return nil, fmt.Errorf("lz host syscall: %w", err)
	}
	rows = append(rows, Table4Row{"LightZone kernel mode to host hypervisor mode", lzHost, lzHost})

	lo, hi, err := measureLZGuestSyscallBand(prof)
	if err != nil {
		return nil, fmt.Errorf("lz guest syscall: %w", err)
	}
	rows = append(rows, Table4Row{"LightZone kernel mode to guest kernel mode", lo, hi})

	hvc, err := measureKVMHypercall(prof)
	if err != nil {
		return nil, fmt.Errorf("kvm hypercall: %w", err)
	}
	rows = append(rows, Table4Row{"KVM Virtualization Host Extensions hypercall", hvc, hvc})

	m := hyp.NewMachine(prof, 64<<20)
	before := m.CPU.Cycles
	m.CPU.WriteSysReg(arm64.HCREL2, 0x1234)
	hcr := m.CPU.Cycles - before
	rows = append(rows, Table4Row{"update HCR_EL2", hcr, hcr})
	before = m.CPU.Cycles
	m.CPU.WriteSysReg(arm64.VTTBREL2, 0x5678)
	vttbr := m.CPU.Cycles - before
	rows = append(rows, Table4Row{"update VTTBR_EL2", vttbr, vttbr})
	return rows, nil
}

// measureEmptySyscall measures one warm empty-syscall roundtrip.
func measureEmptySyscall(plat Platform, lz bool) (int64, error) {
	cost, err := coldSyscall(plat, lz)
	if err != nil {
		return 0, err
	}
	// measureSyscall averages over a marker window that includes the
	// per-call argument setup (3 cheap instructions); strip them.
	return int64(cost) - 4*plat.Prof.InsnCost, nil
}

// measureLZGuestSyscallBand samples many guest LightZone syscalls across
// scheduling quanta, capturing the fluctuation band the shared pt_regs
// pointer relookup produces (§8.1).
func measureLZGuestSyscallBand(prof *arm64.Profile) (int64, int64, error) {
	plat := Platform{prof, true}
	env, err := NewEnv(plat)
	if err != nil {
		return 0, 0, err
	}
	const iters = 40
	a := arm64.NewAsm()
	svcCall(a, core.SysLZEnter, 1, uint64(core.SanTTBR))
	for i := 0; i < iters; i++ {
		hvcCall(a, kernel.SysGetpid)
	}
	hvcCall(a, kernel.SysExit, 0)
	p, err := env.NewProcess("band-probe", a, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	k := env.K
	th := p.MainThread()
	k.SwitchTo(th, &kernel.World{EL: arm64.EL0, HCR: cpu.HCRVM, VTTBR: env.VM.VTTBR(), SCTLR: cpu.SCTLRM})
	lo, hi := int64(1<<62), int64(0)
	seen := 0
	for !p.Exited {
		exit, err := env.M.CPU.Run(1 << 20)
		if err != nil {
			return 0, 0, err
		}
		measuring := false
		var before int64
		if exit.Syndrome.Class == cpu.ECHVC && exit.Syndrome.Imm == core.HVCSyscall {
			seen++
			if seen%prof.SchedQuantumTraps == 0 {
				// Another thread ran: the guest kernel's scheduler
				// fired, so the Lowvisor's cached pt_regs pointer for
				// this thread is stale and must be relocated on the
				// next trap (§8.1) — the source of the row's band.
				k.SchedEvents++
			}
			if seen > 4 && seen < iters { // skip cold start and exit
				before = env.M.CPU.Cycles - prof.ExcEntryTo[arm64.EL2]
				measuring = true
			}
		}
		if err := k.HandleExit(th, exit); err != nil {
			return 0, 0, err
		}
		if measuring {
			cost := env.M.CPU.Cycles - before
			if cost < lo {
				lo = cost
			}
			if cost > hi {
				hi = cost
			}
		}
	}
	if p.Killed {
		return 0, 0, fmt.Errorf("probe killed: %s", p.KillMsg)
	}
	return lo, hi, nil
}

// measureKVMHypercall measures a conventional full-world-switch hypercall.
func measureKVMHypercall(prof *arm64.Profile) (int64, error) {
	m := hyp.NewMachine(prof, 64<<20)
	vm, err := m.Hyp.NewVM("hvcguest", true)
	if err != nil {
		return 0, err
	}
	code := arm64.NewAsm()
	for i := 0; i < 3; i++ {
		code.Emit(arm64.HVC(0))
	}
	code.Label("spin")
	code.B("spin")
	words, err := code.Assemble()
	if err != nil {
		return 0, err
	}
	codePA := mem.PA(0x100000)
	if err := m.PM.Write(codePA, arm64.WordsToBytes(words)); err != nil {
		return 0, err
	}
	for off := mem.IPA(0); off < 0x4000; off += mem.PageSize {
		if err := vm.S2.Map(mem.IPA(codePA)+off, codePA+mem.PA(off), mem.S2APRead|mem.S2APWrite); err != nil {
			return 0, err
		}
	}
	c := m.CPU
	c.SetSys(arm64.SCTLREL1, 0)
	c.SetSys(arm64.HCREL2, cpu.HCRVM)
	c.SetSys(arm64.VTTBREL2, vm.VTTBR())
	c.SetEL(arm64.EL1)
	c.PC = uint64(codePA)

	var cost int64
	for seen := 0; seen < 3; {
		exit, err := c.Run(1 << 20)
		if err != nil {
			return 0, err
		}
		if exit.Syndrome.Class != cpu.ECHVC {
			return 0, fmt.Errorf("unexpected exit %v", exit.Syndrome.Class)
		}
		seen++
		var before int64
		measuring := seen == 3
		if measuring {
			before = c.Cycles - prof.ExcEntryTo[arm64.EL2]
		}
		m.Hyp.HandleEmptyHypercall()
		if err := c.ERET(); err != nil {
			return 0, err
		}
		if measuring {
			cost = c.Cycles - before
		}
	}
	return cost, nil
}
