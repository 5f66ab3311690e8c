package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lightzone/internal/core"
	"lightzone/internal/kernel"
)

// Fork clones a booted environment in O(dirty pages): physical memory forks
// copy-on-write, the machine layers (vCPU, hypervisor, kernels) transfer
// their architectural state exactly, and the module chain — LightZone, both
// baselines, the measurement marker — is re-cloned and re-attached so the
// child's kernel dispatches into the child's modules. The parent must be
// quiescent (between Run invocations); the child is a full environment,
// indistinguishable by replay.Digest from a cold boot driven to the same
// point.
func (e *Env) Fork() *Env {
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
	e2.LZ = e.LZ.Fork(m2.Hyp, e2.K)
	e2.WP = e.WP.Fork()
	e2.LWC = e.LWC.Fork()
	e2.Marks = &Marker{c: m2.CPU, Begin: e.Marks.Begin, End: e.Marks.End}
	e2.K.Module = kernel.ModuleMux{e2.LZ, e2.WP, e2.LWC, e2.Marks}
	if e.Platform.Guest {
		core.InstallLowvisor(m2.Hyp, e2.LZ)
	}
	return e2
}

// zygote is one warmed, never-run environment with its benchmark process
// already created: boot + module setup + assemble + CreateProcess paid once,
// then every consumer forks a child instead of cold-booting. The mutex
// serializes forks — PhysMem.Fork lazily creates share cells on the parent,
// so two concurrent forks of one zygote must not interleave.
type zygote struct {
	mu  sync.Mutex
	env *Env
	pid int
	err error
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
// boot of cfg would run now.
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
	cfg.applyPipeline(env2)
	zygoteForks.Add(1)
	return env2, p2, nil
}
