package kernel

import "lightzone/internal/mem"

// Linux arm64 syscall numbers (subset).
const (
	SysRead         = 63
	SysWrite        = 64
	SysExit         = 93
	SysExitGroup    = 94
	SysNanosleep    = 101
	SysClockGettime = 113
	SysSchedYield   = 124
	SysKill         = 129
	SysSigaction    = 134
	SysSigreturn    = 139
	SysGetpid       = 172
	SysGettid       = 178
	SysBrk          = 214
	SysMunmap       = 215
	SysClone        = 220
	SysMmap         = 222
	SysMprotect     = 226
	SysGetrandom    = 278
)

// Errno values returned negated in x0, Linux-style.
const (
	ENOSYS = 38
	EINVAL = 22
	EFAULT = 14
	ESRCH  = 3
)

func errno(e uint64) uint64 { return -e & 0xFFFFFFFFFFFFFFFF }

// mmapBase is where anonymous mmaps without a hint are placed.
const mmapBase = mem.VA(0x0000_0000_4000_0000)

// DoSyscall dispatches a syscall for thread t. The LightZone module gets
// first claim on its own numbers.
func (k *Kernel) DoSyscall(t *Thread, num int, args [6]uint64) (uint64, error) {
	if k.Module != nil {
		if ret, ok, err := k.Module.Syscall(k, t, num, args); ok || err != nil {
			return ret, err
		}
	}
	p := t.Proc
	switch num {
	case SysExit:
		t.State = ThreadExited
		if live := p.liveThreads(); live == 0 {
			p.Exited = true
			p.ExitCode = int(args[0])
		}
		return 0, nil
	case SysExitGroup:
		p.Exited = true
		p.ExitCode = int(args[0])
		for _, th := range p.Threads {
			th.State = ThreadExited
		}
		return 0, nil
	case SysGetpid:
		return uint64(p.PID), nil
	case SysGettid:
		return uint64(t.TID), nil
	case SysWrite:
		return k.sysWrite(p, args)
	case SysRead:
		return 0, nil // EOF
	case SysSchedYield:
		k.quantumLeft = 0
		return 0, nil
	case SysNanosleep:
		// Model sleeping as burnt cycles proportional to the request.
		k.CPU.Charge(int64(args[0]))
		return 0, nil
	case SysClockGettime:
		// A monotonic clock derived from the cycle counter: nanoseconds
		// at the platform's frequency.
		ns := k.CPU.Cycles * 1000 / k.Prof.CPUFreqMHz / 1000
		return uint64(ns), nil
	case SysBrk:
		return k.sysBrk(p, args)
	case SysGetrandom:
		return k.sysGetrandom(p, args)
	case SysMmap:
		return k.sysMmap(p, args)
	case SysMunmap:
		if err := p.AS.RemoveVMA(mem.VA(args[0]), mem.VA(args[0]+args[1])); err != nil {
			return errno(EINVAL), nil
		}
		k.CPU.TLB.InvalidateVMID(k.CPU.CurrentVMID())
		return 0, nil
	case SysMprotect:
		return k.sysMprotect(p, args)
	case SysClone:
		// Simplified clone(entry, stack_top): spawn a thread.
		nt, err := k.SpawnThread(p, args[0], args[1])
		if err != nil {
			return errno(EINVAL), nil
		}
		return uint64(nt.TID), nil
	case SysKill:
		return k.sysKill(int(args[0]), int(args[1]))
	case SysSigaction:
		sig := int(args[0])
		if sig <= 0 || sig >= 64 {
			return errno(EINVAL), nil
		}
		if p.SigHandlers == nil { // forked processes rebuild this lazily
			p.SigHandlers = make(map[int]uint64)
		}
		p.SigHandlers[sig] = args[1]
		return 0, nil
	case SysSigreturn:
		if err := k.sigReturn(t); err != nil {
			return errno(EINVAL), nil
		}
		return k.CPU.R(0), nil
	default:
		return errno(ENOSYS), nil
	}
}

func (k *Kernel) sysWrite(p *Process, args [6]uint64) (uint64, error) {
	fd, buf, n := args[0], mem.VA(args[1]), args[2]
	if n > 1<<20 {
		return errno(EINVAL), nil
	}
	data := make([]byte, n)
	if err := p.AS.ReadVA(buf, data); err != nil {
		return errno(EFAULT), nil
	}
	// The kernel accesses user memory through its own page tables, where
	// all process memory is user pages; model the uaccess cost.
	k.CPU.Charge(int64(n/64+1) * k.Prof.MemAccessCost)
	if fd == 1 || fd == 2 {
		p.Stdout.Write(data)
	}
	return n, nil
}

func (k *Kernel) sysMmap(p *Process, args [6]uint64) (uint64, error) {
	addr, length, prot := mem.VA(args[0]), args[1], Prot(args[2])
	if length == 0 {
		return errno(EINVAL), nil
	}
	length = mem.PageAlignUp(length)
	if addr == 0 {
		addr = k.findMmapGap(p, length)
		if addr == 0 {
			return errno(EINVAL), nil
		}
	}
	v := VMA{Start: addr, End: addr + mem.VA(length), Prot: prot, Name: "mmap"}
	if err := p.AS.AddVMA(v); err != nil {
		return errno(EINVAL), nil
	}
	return uint64(addr), nil
}

func (k *Kernel) findMmapGap(p *Process, length uint64) mem.VA {
	addr := mmapBase
	for _, v := range p.AS.VMAs() {
		if v.End <= addr {
			continue
		}
		if v.Start >= addr+mem.VA(length) {
			break
		}
		addr = v.End
	}
	if addr+mem.VA(length) > StackTop-StackSize {
		return 0
	}
	return addr
}

func (k *Kernel) sysMprotect(p *Process, args [6]uint64) (uint64, error) {
	start, length, prot := mem.VA(args[0]), mem.PageAlignUp(args[1]), Prot(args[2])
	end := start + mem.VA(length)
	found := false
	vmas := p.AS.VMAs()
	for i := range vmas {
		if vmas[i].Start >= start && vmas[i].End <= end {
			found = true
		}
	}
	if !found && p.AS.FindVMA(start) == nil {
		return errno(EINVAL), nil
	}
	// Update already-mapped PTEs in the kernel-managed table, notifying
	// LightZone so duplicated tables stay synchronized (§5.1.2).
	for va := start; va < end; va += mem.PageSize {
		changed, err := p.AS.S1.UpdateLeaf(va, func(d uint64) uint64 {
			d &^= mem.AttrAPRO | mem.AttrUXN
			if prot&ProtWrite == 0 {
				d |= mem.AttrAPRO
			}
			if prot&ProtExec == 0 {
				d |= mem.AttrUXN
			}
			return d
		})
		if err != nil {
			return errno(EFAULT), nil
		}
		if changed && p.AS.ProtNotify != nil {
			p.AS.ProtNotify(va)
		}
	}
	// The VMA records the new protection for future demand mappings.
	p.AS.SetProt(start, end, prot)
	k.CPU.TLB.InvalidateVMID(k.CPU.CurrentVMID())
	return 0, nil
}

func (k *Kernel) sysKill(pid, sig int) (uint64, error) {
	p, ok := k.procs[pid]
	if !ok {
		return errno(ESRCH), nil
	}
	if sig == 0 {
		return 0, nil
	}
	target := p.MainThread()
	target.sigPending = append(target.sigPending, sig)
	return 0, nil
}

// sysBrk grows (or queries) the process heap: brk(0) returns the current
// break; brk(addr) extends the heap VMA up to addr.
func (k *Kernel) sysBrk(p *Process, args [6]uint64) (uint64, error) {
	if p.Brk == 0 {
		p.Brk = uint64(HeapBase)
	}
	want := args[0]
	if want == 0 {
		return p.Brk, nil
	}
	if want < uint64(HeapBase) || want > uint64(HeapBase)+1<<30 {
		return p.Brk, nil // refused: unchanged break, Linux-style
	}
	newEnd := mem.VA(mem.PageAlignUp(want))
	curEnd := mem.VA(mem.PageAlignUp(p.Brk))
	if newEnd > curEnd {
		if err := p.AS.AddVMA(VMA{Start: curEnd, End: newEnd, Prot: ProtRead | ProtWrite, Name: "heap"}); err != nil {
			return p.Brk, nil
		}
	}
	p.Brk = want
	return p.Brk, nil
}

// sysGetrandom fills the user buffer from the kernel's deterministic
// stream (the simulation must stay reproducible).
func (k *Kernel) sysGetrandom(p *Process, args [6]uint64) (uint64, error) {
	buf, n := mem.VA(args[0]), args[1]
	if n > 1<<16 {
		n = 1 << 16
	}
	out := make([]byte, n)
	for i := range out {
		k.rngState = k.rngState*6364136223846793005 + 1442695040888963407
		out[i] = byte(k.rngState >> 33)
	}
	if err := p.AS.WriteVA(buf, out); err != nil {
		return errno(EFAULT), nil
	}
	k.CPU.Charge(int64(n/16+1) * k.Prof.MemAccessCost)
	return n, nil
}

func (p *Process) liveThreads() int {
	n := 0
	for _, t := range p.Threads {
		if t.State != ThreadExited {
			n++
		}
	}
	return n
}
