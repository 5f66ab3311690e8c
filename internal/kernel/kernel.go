// Package kernel implements the mini operating system substrate the
// LightZone reproduction runs on: processes and threads with demand-paged
// address spaces, a Linux-flavoured syscall table, signal delivery (with
// PAN/TTBR0 in signal contexts, §6), a round-robin in-process scheduler,
// and cycle-accounted kernel entry/exit paths for both positions a kernel
// can occupy in the paper's design — a VHE host kernel at EL2 or a guest
// kernel at EL1.
package kernel

import (
	"errors"
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

// Module is the LightZone kernel module interface. When loaded, it gets
// first claim on every trap from processes that entered LightZone, and on
// the LightZone syscall numbers from ordinary processes.
type Module interface {
	// HandleExit processes a trap from a LightZone thread. It returns
	// handled=false to fall through to normal kernel handling.
	HandleExit(k *Kernel, t *Thread, exit cpu.Exit) (handled bool, err error)
	// Syscall intercepts syscall numbers owned by the module (lz_enter
	// and friends) invoked by ordinary processes. ok=false means the
	// number is not module-owned.
	Syscall(k *Kernel, t *Thread, num int, args [6]uint64) (ret uint64, ok bool, err error)
}

// HypBackend handles exits that outrank the kernel: when a guest kernel
// (EL1) hosts processes, stage-2 faults and hypercalls land at EL2 and are
// processed by the hypervisor/Lowvisor before the guest kernel sees them.
type HypBackend interface {
	HandleEL2Exit(k *Kernel, t *Thread, exit cpu.Exit) (handled bool, err error)
}

// World configures the virtual environment a process executes in:
// hypervisor state, execution EL, and the trap-stub visibility.
type World struct {
	HCR         uint64
	VTTBR       uint64
	EL          arm64.EL
	EmulatedEL1 bool
	VBAR        uint64
	TTBR1       uint64
	SCTLR       uint64
}

// Kernel is the mini OS. EL selects its position: EL2 for a VHE host
// kernel, EL1 for a guest kernel inside a VM.
type Kernel struct {
	Name string
	Prof *arm64.Profile
	PM   *mem.PhysMem
	CPU  *cpu.VCPU
	EL   arm64.EL

	Module Module
	Hyp    HypBackend

	procs    map[int]*Process
	nextPID  int
	nextTID  int
	nextASID uint16
	// asidFree holds recycled ASIDs (LIFO); asidFreed guards against
	// double frees. See AllocASID/FreeASID.
	asidFree  []uint16
	asidFreed map[uint16]bool

	// ASIDRecycles counts allocations served from the free list;
	// ASIDRolls counts 16-bit space exhaustions resolved by a full-TLB
	// generation roll.
	ASIDRecycles int64
	ASIDRolls    int64

	// Cur is the thread currently loaded on the vCPU.
	Cur *Thread

	// QuantumTraps is the number of traps between intra-process
	// scheduling decisions.
	QuantumTraps int
	quantumLeft  int

	// SchedEvents counts context switches (drives the shared pt_regs
	// relookup fluctuation of Table 4).
	SchedEvents int64

	// Stats.
	Syscalls   int64
	PageFaults int64

	// rngState backs the deterministic getrandom stream.
	rngState uint64

	// DisableRetainOpt turns off the §5.2.1 optimization in writeWorldReg:
	// by default HCR_EL2 and VTTBR_EL2 keep their values across traps and
	// a world switch writes each only when its value changes. Set, every
	// switch writes both (the conventional behaviour; an ablation).
	DisableRetainOpt bool
}

// NewKernel creates a kernel bound to a vCPU. el is EL2 for a VHE host
// kernel or EL1 for a guest kernel.
func NewKernel(name string, prof *arm64.Profile, pm *mem.PhysMem, c *cpu.VCPU, el arm64.EL) *Kernel {
	return &Kernel{
		Name:         name,
		Prof:         prof,
		PM:           pm,
		CPU:          c,
		EL:           el,
		procs:        make(map[int]*Process),
		nextPID:      1,
		nextTID:      1,
		nextASID:     1,
		asidFreed:    make(map[uint16]bool),
		QuantumTraps: prof.SchedQuantumTraps,
	}
}

// AllocASID hands out an address space identifier. LightZone also draws
// domain page-table ASIDs from this space (§4.1.2), so under zone churn it
// is allocated from far more often than processes are created. Recycled
// ids (FreeASID) are preferred, LIFO; when the 16-bit space is exhausted
// with nothing parked on the free list, the allocator rolls its generation
// instead of silently wrapping: the whole TLB is invalidated — no
// translation tagged under any previous holder can survive — and the
// counter restarts from 1.
func (k *Kernel) AllocASID() uint16 {
	if n := len(k.asidFree); n > 0 {
		id := k.asidFree[n-1]
		k.asidFree = k.asidFree[:n-1]
		delete(k.asidFreed, id)
		k.ASIDRecycles++
		return id
	}
	if k.nextASID == 0 { // 65535 ids handed out since the last roll
		k.ASIDRolls++
		k.CPU.TLB.InvalidateAll()
		k.nextASID = 1
	}
	id := k.nextASID
	k.nextASID++
	return id
}

// FreeASID returns an id to the allocator. vmid scopes the shootdown:
// every TLB entry tagged (vmid, asid) is invalidated on the spot, so the
// id's next holder — which may be a different address space entirely — can
// never reach the previous holder's mappings through a stale translation.
// The shootdown must stay VMID-scoped: host and guest kernels share one
// physical TLB but draw from independent ASID counters, so the same id
// value may be legitimately live under another VMID. ASID 0 (the reserved
// kernel/global id) and double frees are ignored.
func (k *Kernel) FreeASID(vmid, asid uint16) {
	if asid == 0 || k.asidFreed[asid] {
		return
	}
	k.CPU.TLB.InvalidateASID(vmid, asid)
	if k.asidFreed == nil { // forked kernels rebuild the guard lazily
		k.asidFreed = make(map[uint16]bool)
	}
	k.asidFreed[asid] = true
	k.asidFree = append(k.asidFree, asid)
}

// CreateProcess builds a process from a program image: text at TextBase,
// data at DataBase, a stack below StackTop, plus any extra VMAs.
func (k *Kernel) CreateProcess(name string, prog Program) (*Process, error) {
	as, err := NewAddressSpace(k.PM, k.AllocASID())
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	p := &Process{
		PID:         k.nextPID,
		Name:        name,
		AS:          as,
		SigHandlers: make(map[int]uint64),
	}
	k.nextPID++

	textLen := mem.PageAlignUp(uint64(len(prog.Text)*arm64.InsnBytes) + 1)
	regions := []VMA{
		{Start: TextBase, End: TextBase + mem.VA(textLen), Prot: ProtRead | ProtExec, Name: "text"},
		{Start: StackTop - StackSize, End: StackTop, Prot: ProtRead | ProtWrite, Name: "stack"},
	}
	// Every process gets a data region (at least one page) so programs
	// can use DataBase unconditionally.
	dataLen := mem.PageAlignUp(uint64(len(prog.Data)) + 1)
	regions = append(regions, VMA{Start: DataBase, End: DataBase + mem.VA(dataLen), Prot: ProtRead | ProtWrite, Name: "data"})
	regions = append(regions, prog.Extra...)
	for _, r := range regions {
		if err := as.AddVMA(r); err != nil {
			return nil, err
		}
	}
	if len(prog.Text) > 0 {
		if err := as.WriteVA(TextBase, arm64.WordsToBytes(prog.Text)); err != nil {
			return nil, err
		}
	}
	if len(prog.Data) > 0 {
		if err := as.WriteVA(DataBase, prog.Data); err != nil {
			return nil, err
		}
	}

	t := &Thread{TID: k.nextTID, Proc: p, State: ThreadReady}
	k.nextTID++
	t.Ctx = Context{
		PC:     uint64(TextBase),
		PState: arm64.PStateForEL(arm64.EL0),
		SPEL0:  uint64(StackTop) - 64,
		TTBR0:  cpu.MakeTTBR(uint64(as.S1.Root()), as.S1.ASID()),
		SCTLR:  cpu.SCTLRM,
	}
	p.Threads = append(p.Threads, t)
	k.procs[p.PID] = p
	return p, nil
}

// SpawnThread adds a thread to p starting at entry with its own stack.
func (k *Kernel) SpawnThread(p *Process, entry uint64, stackTop uint64) (*Thread, error) {
	t := &Thread{TID: k.nextTID, Proc: p, State: ThreadReady}
	k.nextTID++
	main := p.MainThread()
	t.Ctx = main.Ctx
	t.Ctx.X = [32]uint64{}
	t.Ctx.PC = entry
	t.Ctx.SPEL0 = stackTop
	p.Threads = append(p.Threads, t)
	return t, nil
}

// Process returns the process with the given PID.
func (k *Kernel) Process(pid int) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// esrReg returns the syndrome register the kernel reads on entry.
func (k *Kernel) esrReg() arm64.SysReg {
	if k.EL == arm64.EL2 {
		return arm64.ESREL2
	}
	return arm64.ESREL1
}

// ChargeKernelEntry models the architectural kernel entry path: pt_regs
// save (STP pairs), syndrome read, SP_EL0 stash, and dispatch.
func (k *Kernel) ChargeKernelEntry() {
	c := k.CPU
	c.Charge(16 * k.Prof.MemAccessCost) // kernel_entry: 16 STP pairs
	c.ReadSysReg(k.esrReg())
	// Stash the user SP_EL0 and install the kernel thread pointer.
	c.WriteSysReg(arm64.SPEL0, c.ReadSysReg(arm64.SPEL0))
	c.Charge(k.Prof.HandlerDispatchCost)
}

// ChargeKernelExit models kernel_exit: pt_regs restore and SP_EL0 restore.
func (k *Kernel) ChargeKernelExit() {
	c := k.CPU
	c.Charge(16 * k.Prof.MemAccessCost)
	c.WriteSysReg(arm64.SPEL0, c.Sys(arm64.SPEL0))
}

// writeWorldReg writes an EL2 control register only when its value changes,
// implementing the §5.2.1 retain optimization; with DisableRetainOpt the
// write is unconditional (conventional hypervisor behaviour).
func (k *Kernel) writeWorldReg(r arm64.SysReg, v uint64) {
	if !k.DisableRetainOpt && k.CPU.Sys(r) == v {
		return
	}
	k.CPU.WriteSysReg(r, v)
}

// SwitchTo loads thread t (and its process world) onto the vCPU, charging
// context-switch costs. Re-selecting the thread already live on the vCPU
// only refreshes the world registers (through the retain filter) and the
// scheduling quantum — the architectural context stays untouched.
func (k *Kernel) SwitchTo(t *Thread, w *World) {
	c := k.CPU
	if k.Cur != t {
		k.SchedEvents++
		if k.Cur != nil && k.Cur.State == ThreadRunning {
			k.Cur.State = ThreadReady
			CaptureContext(c, &k.Cur.Ctx)
			c.Charge(16 * k.Prof.MemAccessCost)
		}
		c.Charge(16 * k.Prof.MemAccessCost) // restore GPRs
		RestoreContext(c, &t.Ctx)
		// Seed world-provided EL1 state for threads whose saved context
		// predates the world configuration (first run).
		if t.Ctx.VBAR == 0 && w.VBAR != 0 {
			c.SetSys(arm64.VBAREL1, w.VBAR)
		}
		if t.Ctx.TTBR1 == 0 && w.TTBR1 != 0 {
			c.SetSys(arm64.TTBR1EL1, w.TTBR1)
		}
		if t.Ctx.SCTLR == 0 && w.SCTLR != 0 {
			c.SetSys(arm64.SCTLREL1, w.SCTLR)
		}
	}
	// World registers: written through the retain filter.
	k.writeWorldReg(arm64.HCREL2, w.HCR)
	k.writeWorldReg(arm64.VTTBREL2, w.VTTBR)
	c.EmulatedEL1 = w.EmulatedEL1
	k.Cur = t
	t.State = ThreadRunning
	k.quantumLeft = k.QuantumTraps
}

// ErrTrapBudget is returned by RunProcess when maxTraps is exhausted
// before the process exits. The budget-exhausting trap is fully handled
// before the error is reported — the vCPU is parked at a clean
// architectural boundary (post-ERET, no exception in flight), so callers
// can resume the process with another RunProcess call. The record/replay
// chaos engine leans on this to drive runs in slices.
var ErrTrapBudget = errors.New("trap budget exhausted")

// worldFor builds the World configuration for an ordinary process under
// this kernel. LightZone processes carry their own world (built by the
// module) in Process.LZ via the LZWorld interface. It returns the World by
// value, so a scheduling decision allocates nothing.
func (k *Kernel) worldFor(p *Process) World {
	if lzw, ok := p.LZ.(interface{ World() *World }); ok && p.LZ != nil {
		return *lzw.World()
	}
	w := World{EL: arm64.EL0, SCTLR: cpu.SCTLRM}
	if k.EL == arm64.EL2 {
		w.HCR = cpu.HCRE2H | cpu.HCRTGE // VHE host process
	} else {
		// Guest process: the enclosing VM's stage-2 stays installed;
		// keep current HCR/VTTBR values.
		w.HCR = k.CPU.Sys(arm64.HCREL2)
		w.VTTBR = k.CPU.Sys(arm64.VTTBREL2)
	}
	return w
}

// RunProcess schedules p's threads round-robin until the process exits or
// maxTraps traps have been handled.
func (k *Kernel) RunProcess(p *Process, maxTraps int64) error {
	traps := int64(0)
	for !p.Exited {
		t := k.pickThread(p)
		if t == nil {
			return fmt.Errorf("process %d: no runnable threads", p.PID)
		}
		w := k.worldFor(p)
		k.SwitchTo(t, &w)
		for !p.Exited && t.State == ThreadRunning {
			exit, err := k.CPU.Run(1 << 30)
			if err != nil {
				return fmt.Errorf("pid %d: %w", p.PID, err)
			}
			traps++
			// Handle the exit BEFORE checking the budget: cpu.Run has
			// already taken the exception, so bailing out here would strand
			// the vCPU at the vector with a half-delivered trap and make the
			// next RunProcess call resume into the interpreter's EL2 guard.
			if err := k.HandleExit(t, exit); err != nil {
				return err
			}
			if traps >= maxTraps && !p.Exited {
				return ErrTrapBudget
			}
			k.quantumLeft--
			if k.quantumLeft <= 0 {
				break // reschedule
			}
		}
	}
	return nil
}

// pickThread selects the next ready thread of p (round-robin).
func (k *Kernel) pickThread(p *Process) *Thread {
	n := len(p.Threads)
	start := 0
	if k.Cur != nil && k.Cur.Proc == p {
		for i, t := range p.Threads {
			if t == k.Cur {
				start = i + 1
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		t := p.Threads[(start+i)%n]
		if t.State == ThreadReady || t.State == ThreadRunning {
			return t
		}
	}
	return nil
}

// HandleExit processes one trap from the current thread, charges the
// kernel paths, and returns with the vCPU ready to continue (ERET done)
// unless the thread blocked or the process died.
func (k *Kernel) HandleExit(t *Thread, exit cpu.Exit) error {
	// The hypervisor outranks a guest kernel for EL2 exits.
	if exit.TargetEL == arm64.EL2 && k.EL == arm64.EL1 {
		if k.Hyp == nil {
			return fmt.Errorf("EL2 exit with no hypervisor backend: %+v", exit.Syndrome)
		}
		handled, err := k.Hyp.HandleEL2Exit(k, t, exit)
		if err != nil {
			return err
		}
		if handled {
			return nil
		}
	}
	// Modules get first claim on every trap (the LightZone module
	// checks process ownership itself; baselines do likewise).
	if k.Module != nil {
		handled, err := k.Module.HandleExit(k, t, exit)
		if err != nil {
			return err
		}
		if handled {
			return nil
		}
	}

	s := exit.Syndrome
	switch s.Class {
	case cpu.ECSVC:
		k.ChargeKernelEntry()
		k.Syscalls++
		num := int(k.CPU.R(8))
		args := [6]uint64{k.CPU.R(0), k.CPU.R(1), k.CPU.R(2), k.CPU.R(3), k.CPU.R(4), k.CPU.R(5)}
		ret, err := k.DoSyscall(t, num, args)
		if err != nil {
			return err
		}
		k.CPU.SetR(0, ret)
		k.checkPendingSignals(t)
		return k.ReturnToUser(t)
	case cpu.ECDataAbortLower, cpu.ECDataAbortSame, cpu.ECInsAbortLower, cpu.ECInsAbortSame:
		return k.handleFault(t, s)
	case cpu.ECIRQ:
		k.ChargeKernelEntry()
		k.quantumLeft = 0 // force reschedule
		return k.ReturnToUser(t)
	case cpu.ECUnknown:
		t.Proc.Kill(fmt.Sprintf("SIGILL: undefined instruction at %#x", s.PC))
		return nil
	case cpu.ECSMC:
		t.Proc.Kill(fmt.Sprintf("SIGILL: smc at %#x", s.PC))
		return nil
	case cpu.ECHVC:
		t.Proc.Kill(fmt.Sprintf("SIGILL: stray hvc at %#x", s.PC))
		return nil
	case cpu.ECMSRTrap:
		t.Proc.Kill(fmt.Sprintf("SIGILL: trapped system access at %#x", s.PC))
		return nil
	default:
		return fmt.Errorf("unhandled exit %+v", s)
	}
}

// handleFault demand-maps or kills on SIGSEGV.
func (k *Kernel) handleFault(t *Thread, s cpu.Syndrome) error {
	k.ChargeKernelEntry()
	k.PageFaults++
	if s.Kind == mem.FaultTranslation && s.Stage == 1 {
		ok, err := t.Proc.AS.DemandMap(s.VA)
		if err != nil {
			return err
		}
		if ok {
			k.CPU.Charge(k.Prof.HandlerDispatchCost) // fault path is longer
			return k.ReturnToUser(t)
		}
	}
	if k.deliverPendingSignal(t, SIGSEGV, s) {
		return k.ReturnToUser(t)
	}
	t.Proc.Kill(fmt.Sprintf("SIGSEGV: %v %v at va %v pc=%#x", s.Kind, s.Access, s.VA, s.PC))
	return nil
}

// ReturnToUser charges kernel exit and performs ERET back to the thread.
func (k *Kernel) ReturnToUser(t *Thread) error {
	if t.Proc.Exited || t.State == ThreadExited {
		return nil
	}
	k.ChargeKernelExit()
	return k.CPU.ERET()
}
