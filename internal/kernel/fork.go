package kernel

import (
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

// cloneFor duplicates the address space bookkeeping for a forked machine
// whose physical memory pm2 holds a copy of the original's frames. The page
// table itself lives in physical memory, which the fork copied; only the
// Go-side metadata moves. UnmapNotify/ProtNotify are deliberately dropped — they
// close over the original machine's module state.
func (as *AddressSpace) cloneFor(pm2 *mem.PhysMem) *AddressSpace {
	return &AddressSpace{
		S1:        as.S1.CloneFor(pm2),
		pm:        pm2,
		vmas:      append([]VMA(nil), as.vmas...),
		DataBytes: as.DataBytes,
	}
}

// cloneFor duplicates a created, never-scheduled process for a forked
// kernel: its identity, address space and program break, and each thread's
// id, state and initial context. Everything a run creates — exit and kill
// state, output, signal handlers and queues, module-owned LZ state — is
// still at its initial value.
func (p *Process) cloneFor(pm2 *mem.PhysMem) *Process {
	p2 := &Process{PID: p.PID, Name: p.Name, AS: p.AS.cloneFor(pm2), Brk: p.Brk}
	for _, t := range p.Threads {
		p2.Threads = append(p2.Threads, &Thread{TID: t.TID, Proc: p2, State: t.State, Ctx: t.Ctx})
	}
	return p2
}

// Fork clones the kernel for a forked machine running on pm2/cpu2, with hyp
// the forked hypervisor backend. A kernel forks only at a fork point
// (workload.Env.Fork): processes created, no thread ever scheduled. The
// clone carries the PID, TID and ASID counters, so the child hands out
// the ids a cold-booted kernel would, and the process table. Everything a
// run creates — the current thread, the ASID free list and its
// double-free guard, the scheduling quantum, the getrandom stream, the
// syscall, fault, scheduling and ASID-recycle counters — is still at its
// initial value. The Module is left unset: the caller re-attaches the
// forked module chain.
func (k *Kernel) Fork(pm2 *mem.PhysMem, cpu2 *cpu.VCPU, hyp HypBackend) *Kernel {
	if k.Cur != nil {
		panic("kernel: fork of a kernel that has scheduled a thread")
	}
	k2 := &Kernel{
		Name:             k.Name,
		Prof:             k.Prof,
		PM:               pm2,
		CPU:              cpu2,
		EL:               k.EL,
		Hyp:              hyp,
		procs:            make(map[int]*Process, len(k.procs)),
		nextPID:          k.nextPID,
		nextTID:          k.nextTID,
		nextASID:         k.nextASID,
		QuantumTraps:     k.QuantumTraps,
		DisableRetainOpt: k.DisableRetainOpt,
	}
	for pid, p := range k.procs {
		k2.procs[pid] = p.cloneFor(pm2)
	}
	return k2
}
