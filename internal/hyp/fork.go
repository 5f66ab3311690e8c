package hyp

import (
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

// Fork clones the EL2 layer for a forked machine running on pm2/cpu2. VM
// records are duplicated with their stage-2 tables re-pointed at the
// child's physical memory (the table frames themselves were copied by
// PhysMem.Fork); guest kernels are attached by Machine.Fork, and the
// Lowvisor by core.InstallLowvisor, since both close over state this
// package does not own.
func (h *Hypervisor) Fork(pm2 *mem.PhysMem, cpu2 *cpu.VCPU) *Hypervisor {
	h2 := &Hypervisor{
		Prof:         h.Prof,
		PM:           pm2,
		CPU:          cpu2,
		Opts:         h.Opts,
		vms:          make(map[uint16]*VM, len(h.vms)),
		nextVMID:     h.nextVMID,
		Stage2Faults: h.Stage2Faults,
		Hypercalls:   h.Hypercalls,
	}
	for vmid, vm := range h.vms {
		h2.vms[vmid] = &VM{
			VMID:       vm.VMID,
			Name:       vm.Name,
			S2:         vm.S2.CloneFor(pm2),
			IdentityS2: vm.IdentityS2,
		}
	}
	return h2
}

// Fork clones the whole platform: physical memory is copied frame by frame,
// the vCPU transfers its architectural state exactly, and the hypervisor,
// host kernel, and every guest kernel are re-assembled around the child's
// memory. The vCPU, memory and hypervisor forks are general; the kernel
// forks are not: a machine forks only at a fork point (workload.Env.Fork),
// with processes created and no thread ever scheduled, and
// kernel.Kernel.Fork panics on anything else. Module wiring (the LightZone
// module chain and the Lowvisor) is the caller's job.
func (m *Machine) Fork() *Machine {
	pm2 := m.PM.Fork()
	cpu2 := m.CPU.Fork(pm2)
	h2 := m.Hyp.Fork(pm2, cpu2)
	host2 := m.Host.Fork(pm2, cpu2, h2)
	for vmid, vm := range m.Hyp.vms {
		if vm.Kernel != nil {
			h2.vms[vmid].Kernel = vm.Kernel.Fork(pm2, cpu2, h2)
		}
	}
	return &Machine{Prof: m.Prof, PM: pm2, CPU: cpu2, Hyp: h2, Host: host2}
}
