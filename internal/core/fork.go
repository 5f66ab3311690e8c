package core

import "lightzone/internal/hyp"

// Fork clones the module for a forked machine whose hypervisor is hyp2. A
// module forks only at a fork point (workload.Env.Fork): gate entries
// registered, no process in LightZone yet. lz_enter builds every piece of
// per-process state — the VM, the domain tables, the gate pages, the
// fake-physical layer — so the clone carries the options, the backend
// and the pending gate entries, and a child's lz_enter builds the rest
// exactly as a cold boot's would. The Trace recorder and Observer hook
// are left unset: both are observation-only attachments the caller
// re-arms if it wants them.
func (lz *LightZone) Fork(hyp2 *hyp.Hypervisor) *LightZone {
	if len(lz.procs) != 0 {
		panic("core: fork of a module with a process in LightZone")
	}
	lz2 := New(hyp2)
	lz2.Opts, lz2.GuestMode, lz2.backend = lz.Opts, lz.GuestMode, lz.backend
	for pid, entries := range lz.pendingEntries {
		lz2.pendingEntries[pid] = append([]GateEntry(nil), entries...)
	}
	return lz2
}
