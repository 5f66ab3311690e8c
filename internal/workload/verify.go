package workload

import (
	"fmt"

	"lightzone/internal/core"
	"lightzone/internal/trace"
	"lightzone/internal/verify"
)

// InvariantMonitor accumulates static-verifier runs triggered at the
// LightZone module's mutation chokepoints (-invariants mode). Each run
// captures a fresh snapshot of the whole machine and executes the full
// checker registry; a clean machine must stay clean at every chokepoint,
// not just at the end of a run.
type InvariantMonitor struct {
	env *Env

	// Runs counts verifier executions; Findings sums their findings.
	Runs     int
	Findings int
	// Last is the most recent report (useful when Findings > 0).
	Last verify.Report
	// Err records the first capture failure (a simulator bug, not a
	// security finding).
	Err error

	// memo caches the content-keyed checkers (sanitizer sweep, CFG) for
	// every executable state the machine has been verified in; memoised
	// reports are byte-identical to fresh ones.
	memo *verify.Memo
}

// EnableInvariants attaches the static verifier to every security-state
// mutation chokepoint of the module (lz_enter, lz_prot, lz_alloc, lz_free,
// lz_map_gate_pgt, sanitizer admissions, W-xor-X flips). Verification is
// observation-only — emulated cycles, TLB statistics and benchmark results
// are byte-identical with the monitor attached — and each run is recorded
// on the module's trace as a KindInvariant event.
func (e *Env) EnableInvariants() *InvariantMonitor {
	mon := &InvariantMonitor{env: e, memo: new(verify.Memo)}
	e.LZ.Observer = func(event string, lp *core.LZProc) {
		rep, err := verify.RunMachineMemo(e.M, e.LZ, mon.memo)
		if err != nil {
			if mon.Err == nil {
				mon.Err = fmt.Errorf("invariant capture at %s: %w", event, err)
			}
			return
		}
		mon.Runs++
		mon.Findings += len(rep.Findings)
		mon.Last = rep
		e.LZ.Trace.Record(e.M.CPU.Cycles, trace.KindInvariant, lp.PID(),
			"%s: %d checkers, %d findings", event, len(rep.Checkers), len(rep.Findings))
	}
	return mon
}

// VerifyResult is one clean-machine verification cell: a benchmark
// configuration run to completion with the invariant monitor attached,
// plus a final whole-machine report.
type VerifyResult struct {
	Name          string        `json:"name"`
	Machine       string        `json:"machine"`
	InvariantRuns int           `json:"invariant_runs"`
	Findings      int           `json:"findings"`
	Final         verify.Report `json:"final"`
}

// verifyConfigs are the clean machines the sweep proves invariant-free:
// scalable TTBR isolation at two domain counts and PAN-based isolation,
// matching the Table 5 configurations.
func verifyConfigs(plat Platform) []struct {
	name string
	cfg  DomainSwitchConfig
} {
	return []struct {
		name string
		cfg  DomainSwitchConfig
	}{
		{"ttbr-8", DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 8, Iters: 200, Seed: Table5Seed}},
		{"ttbr-32", DomainSwitchConfig{Platform: plat, Variant: VariantLZTTBR, Domains: 32, Iters: 100, Seed: Table5Seed}},
		{"pan-8", DomainSwitchConfig{Platform: plat, Variant: VariantLZPAN, Domains: 8, Iters: 200, Seed: Table5Seed}},
	}
}

// verifyCell runs one clean configuration to completion with a trace
// recorder and the invariant monitor attached, then verifies the whole
// machine once more. The monitor carries the recorder (its env's LZ.Trace)
// and the last chokepoint report.
func verifyCell(name string, cfg DomainSwitchConfig) (VerifyResult, *InvariantMonitor, error) {
	env, err := NewEnv(cfg.Platform)
	if err != nil {
		return VerifyResult{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	env.EnableTrace(4096)
	mon := env.EnableInvariants()
	if _, _, err := runDomainSwitch(cfg, env); err != nil {
		return VerifyResult{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	if mon.Err != nil {
		return VerifyResult{}, nil, fmt.Errorf("%s: %w", name, mon.Err)
	}
	final, err := verify.RunMachine(env.M, env.LZ)
	if err != nil {
		return VerifyResult{}, nil, fmt.Errorf("%s: final verification: %w", name, err)
	}
	return VerifyResult{
		Name:          name,
		Machine:       final.Machine,
		InvariantRuns: mon.Runs,
		Findings:      mon.Findings + len(final.Findings),
		Final:         final,
	}, mon, nil
}

// VerifyProbe runs the sweep's ttbr-8 cell — the machine behind lzinspect
// -invariants. The returned result carries the final whole-machine report;
// the recorder holds one KindInvariant event per verifier run.
func VerifyProbe(plat Platform) (VerifyResult, *trace.Recorder, error) {
	c := verifyConfigs(plat)[0]
	res, mon, err := verifyCell(c.name, c.cfg)
	if err != nil {
		return VerifyResult{}, nil, err
	}
	return res, mon.env.LZ.Trace, nil
}

// VerifySweep runs every clean configuration with chokepoint verification
// enabled and a final post-run verification, one fleet cell per
// configuration. Any finding on these machines is an error: the verifier
// must hold exactly on the states the runtime constructs.
func (f *Fleet) VerifySweep(plat Platform) ([]VerifyResult, error) {
	cfgs := verifyConfigs(plat)
	out := make([]VerifyResult, len(cfgs))
	err := f.Run(len(cfgs), func(i int) error {
		c := cfgs[i]
		res, mon, err := verifyCell(c.name, c.cfg)
		if err != nil {
			return err
		}
		if mon.Runs == 0 {
			return fmt.Errorf("%s: invariant monitor never fired", c.name)
		}
		if res.Findings > 0 {
			for _, fd := range append(mon.Last.Findings, res.Final.Findings...) {
				return findingsf("%s: clean machine reported finding: %s", c.name, fd)
			}
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
