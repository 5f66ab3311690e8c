package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lightzone/internal/baseline"
	"lightzone/internal/core"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
)

// Fork clones a prepared environment. It forks only at a fork point: the
// machine booted, the modules installed, the process created and its gate
// entries registered, and nothing run. No instruction retired, no process
// in LightZone and no thread scheduled; Fork, the module fork and the
// kernel fork each panic on a machine past that point. Physical memory is
// copied (a prepared machine holds 7 frames), the vCPU and hypervisor
// transfer their state exactly, the kernels their id counters and process
// tables, and the child's module chain is rebuilt from what preparation
// set: the LightZone module's options, backend and gate entries, fresh
// baselines (only their syscalls create per-process records) and an unset
// marker. The child is a full environment, indistinguishable by
// replay.Digest from a cold boot of the same preparation.
func (e *Env) Fork() *Env {
	if e.M.CPU.Insns != 0 {
		panic("workload: fork of a machine that has run")
	}
	m2 := e.M.Fork()
	e2 := &Env{Platform: e.Platform, M: m2}
	if e.Platform.Guest {
		vm2, ok := m2.Hyp.VMByID(e.VM.VMID)
		if !ok || vm2.Kernel == nil {
			panic("workload: forked machine lost the guest VM")
		}
		e2.VM = vm2
		e2.K = vm2.Kernel
	} else {
		e2.K = m2.Host
	}
	e2.LZ = e.LZ.Fork(m2.Hyp)
	e2.WP = baseline.NewWatchpoint()
	e2.LWC = baseline.NewLwC()
	e2.Marks = &Marker{c: m2.CPU, Begin: markerUnset, End: markerUnset}
	e2.K.Module = kernel.ModuleMux{e2.LZ, e2.WP, e2.LWC, e2.Marks}
	if e.Platform.Guest {
		core.InstallLowvisor(m2.Hyp, e2.LZ)
	}
	return e2
}

// zygote is one warmed, never-run environment with its benchmark process
// already created: boot + module setup + assemble + CreateProcess paid once,
// then every consumer forks a child instead of cold-booting. The mutex makes
// the preparation happen once (env, pid and err are set under it) and
// serializes the forks of one zygote.
//
// tmpl is the code template of the zygote's first child to finish with its
// decode cache and traces on (see publish). It is set once, by
// compare-and-swap, and immutable after; every child forked later adopts
// from it (cpu.CodeTemplate), and a child forked before runs without one.
type zygote struct {
	mu   sync.Mutex
	env  *Env
	pid  int
	err  error
	tmpl atomic.Pointer[cpu.CodeTemplate]
}

// publish offers a finished child's code as the zygote's template, unless
// one is published already.
func (z *zygote) publish(c *cpu.VCPU) {
	if z.tmpl.Load() != nil {
		return
	}
	if t := c.CodeTemplate(); t != nil {
		z.tmpl.CompareAndSwap(nil, t)
	}
}

var (
	zygoteMu sync.Mutex
	zygotes  = make(map[zkey]*zygote)
	// ZygoteForks counts children handed out across all pools (bench/CI
	// telemetry; not digest-visible).
	zygoteForks atomic.Int64
)

// ZygoteForkCount returns the number of children forked from zygote pools.
func ZygoteForkCount() int64 { return zygoteForks.Load() }

// ResetZygotes drops every pooled zygote (tests use this to force fresh
// cold preparations).
func ResetZygotes() {
	zygoteMu.Lock()
	defer zygoteMu.Unlock()
	zygotes = make(map[zkey]*zygote)
}

// zkey is the pool key: every DomainSwitchConfig field that shapes the
// prepared machine, with the profile reduced to its name (profiles arrive
// as distinct pointers to identical values). A comparable struct keeps the
// per-fork lookup allocation-free — forks are on the measured path of the
// zygote benchmark. The pipeline ablations (Disable*) are not part of it:
// a child takes its pipeline from the process defaults and the config at
// fork time, never from its zygote.
type zkey struct {
	prof           string
	guest          bool
	variant        Variant
	domains, iters int
	seed           int64
}

// zygoteKey covers every machine-shaping DomainSwitchConfig field: two
// configs that differ in any of them get distinct zygotes.
func zygoteKey(cfg DomainSwitchConfig) zkey {
	return zkey{
		prof: cfg.Platform.Prof.Name, guest: cfg.Platform.Guest,
		variant: cfg.Variant, domains: cfg.Domains, iters: cfg.Iters,
		seed: cfg.Seed,
	}
}

// ForkDomainSwitch returns a forked child of the config's zygote,
// cold-preparing the zygote on first use. The child is ready to Run exactly
// as a PrepareDomainSwitch result would be, and runs the pipeline a cold
// boot of cfg would run now. Its code caches start empty; once a sibling
// has published the zygote's code template, they fill from it.
func ForkDomainSwitch(cfg DomainSwitchConfig) (*Env, *kernel.Process, error) {
	zygoteMu.Lock()
	z, ok := zygotes[zygoteKey(cfg)]
	if !ok {
		z = &zygote{}
		zygotes[zygoteKey(cfg)] = z
	}
	zygoteMu.Unlock()

	z.mu.Lock()
	defer z.mu.Unlock()
	if z.err != nil {
		return nil, nil, z.err
	}
	if z.env == nil {
		env, p, err := prepareDomainSwitch(cfg, nil)
		if err != nil {
			z.err = err
			return nil, nil, err
		}
		z.env, z.pid = env, p.PID
	}
	env2 := z.env.Fork()
	p2, ok := env2.K.Process(z.pid)
	if !ok {
		return nil, nil, fmt.Errorf("zygote fork lost process %d", z.pid)
	}
	if t := z.tmpl.Load(); t != nil {
		env2.M.CPU.SetCodeTemplate(t)
	} else {
		env2.zyg = z // a candidate publisher (Env.Run)
	}
	cfg.applyPipeline(env2)
	zygoteForks.Add(1)
	return env2, p2, nil
}
