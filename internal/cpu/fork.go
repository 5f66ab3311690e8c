package cpu

import "lightzone/internal/mem"

// Fork clones this vCPU for a forked machine backed by pm2 (a fork of this
// vCPU's physical memory). Architectural state — registers, PSTATE, the
// system-register file, cycle/instruction counters, and the warm TLB —
// transfers exactly: all of it is digest-visible, so the child must resume
// from precisely the state a cold boot reaches at the same point. Host-side
// caches (decoded blocks, stitched traces, micro-TLBs, batched cycles)
// start empty instead: the identity CI lanes prove them digest-invisible,
// and fresh caches cannot dangle into the parent's frame storage. A
// zygote's child fills its empty caches from the zygote's code template
// once one is attached (SetCodeTemplate): a block only after its words at
// that PA check equal, a trace only when its members are such blocks. The
// pipeline toggles (decode cache, micro-TLBs, traces, proof audit) are
// seeded from the process defaults, exactly as a cold boot's are, so a
// child forked after the defaults change runs the pipeline a cold boot
// would run now, not the one its zygote was booted under.
//
// Fork must only be called between Run invocations — no instruction or
// cached-block replay may be in flight on the parent.
func (c *VCPU) Fork(pm2 *mem.PhysMem) *VCPU {
	stats2 := &mem.Stats{}
	*stats2 = *c.Stats
	epochs2 := mem.NewCodeEpochs(stats2) // the child's own code-epoch tracker
	c2 := wire(c.Prof, pm2, stats2, epochs2, c.TLB.Clone(stats2, epochs2))
	c2.X = c.X
	c2.PC = c.PC
	c2.PState = c.PState
	c2.sys = c.sys
	c2.EmulatedEL1 = c.EmulatedEL1
	c2.LastSyndrome = c.LastSyndrome
	c2.PendingIRQ = c.PendingIRQ
	c2.Insns = c.Insns
	c2.excSeq = c.excSeq
	c2.Charge(c.Cycles) // cycles move only through Charge (tools/lint)
	return c2
}
