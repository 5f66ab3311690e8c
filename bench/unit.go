package main

import (
	"fmt"

	"lightzone/internal/kernel"
	"lightzone/internal/replay"
	"lightzone/internal/workload"
)

// unitCtx is one unit in flight: its spans (nil when untraced) and the
// per-machine counter deltas of the machines it drove.
type unitCtx struct {
	tr *unitTrace
	mc machineCounters
}

// call runs fn, inside a span named name when the unit is traced.
func (u *unitCtx) call(name string, fn func() error) error {
	if u.tr == nil {
		return fn()
	}
	i := u.tr.begin(name)
	err := fn()
	u.tr.end(i)
	return err
}

type prepareFunc func(workload.DomainSwitchConfig) (*workload.Env, *kernel.Process, error)

// runCell prepares a domain-switch cell (cold boot or zygote fork, in a
// span named prepName), runs it to exit and digests the finished machine.
func (u *unitCtx) runCell(cfg workload.DomainSwitchConfig, prepName string, prepare prepareFunc) (*workload.Env, replay.Digest, error) {
	var env *workload.Env
	var p *kernel.Process
	var d replay.Digest
	if err := u.call(prepName, func() (err error) { env, p, err = prepare(cfg); return err }); err != nil {
		return nil, d, fmt.Errorf("%s %s: %w", prepName, cellName(cfg), err)
	}
	before := readMachine(env, p)
	if err := u.call("cpu.run", func() error { return env.Run(p, workload.DomainSwitchBudget(cfg)) }); err != nil {
		return nil, d, fmt.Errorf("run %s: %w", cellName(cfg), err)
	}
	if err := u.call("replay.digest", func() (err error) { d, err = cellDigest(env, p); return err }); err != nil {
		return nil, d, fmt.Errorf("digest %s: %w", cellName(cfg), err)
	}
	u.mc.addDelta(before, readMachine(env, p))
	return env, d, nil
}

// Per-machine counters, read from the public fields and accessors of the
// Env a unit holds.
const (
	mcMachines = iota
	mcCodeBlocks
	mcCodeStale
	mcCodeInvalidations
	mcMTLBIHits
	mcMTLBIMisses
	mcMTLBDHits
	mcMTLBDMisses
	mcCOWCopies
	mcSharedFrames // a level, not a delta: the value after the run
	mcSyscalls
	mcPageFaults
	mcHypercalls
	mcStage2Faults
	mcLZTraps
	numMachineCounters
)

type machineCounters [numMachineCounters]int64

func readMachine(env *workload.Env, p *kernel.Process) machineCounters {
	c := env.M.CPU
	ih, im, dh, dm := c.MicroTLBStats()
	var mc machineCounters
	mc[mcCodeBlocks] = int64(c.Stats.CodeBlocks)
	mc[mcCodeStale] = int64(c.Stats.CodeStale)
	mc[mcCodeInvalidations] = int64(c.Stats.CodeInvalidations)
	mc[mcMTLBIHits], mc[mcMTLBIMisses] = int64(ih), int64(im)
	mc[mcMTLBDHits], mc[mcMTLBDMisses] = int64(dh), int64(dm)
	mc[mcCOWCopies] = int64(env.M.PM.COWCopies())
	mc[mcSharedFrames] = int64(env.M.PM.SharedFrames())
	mc[mcSyscalls], mc[mcPageFaults] = env.K.Syscalls, env.K.PageFaults
	mc[mcHypercalls], mc[mcStage2Faults] = env.M.Hyp.Hypercalls, env.M.Hyp.Stage2Faults
	if lp, ok := env.LZ.ProcState(p); ok {
		mc[mcLZTraps] = lp.Traps
	}
	return mc
}

// addDelta adds one machine's after-before deltas.
func (m *machineCounters) addDelta(before, after machineCounters) {
	m[mcMachines]++
	for i := mcMachines + 1; i < numMachineCounters; i++ {
		if i == mcSharedFrames {
			m[i] += after[i]
		} else {
			m[i] += after[i] - before[i]
		}
	}
}

func (m *machineCounters) add(o machineCounters) {
	for i := range m {
		m[i] += o[i]
	}
}
