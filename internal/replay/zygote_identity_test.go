package replay

// Fork-identity suite (DESIGN.md §14): a machine forked from a warmed
// zygote must be indistinguishable — by the full replay digest, at every
// comparison grade — from a machine cold-booted and driven to the same
// point. This is the contract that lets the chaos engine, the fleet and
// the calibration paths fork instead of boot without moving a single
// measured number.

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/kernel"
	"lightzone/internal/workload"
)

// finishDigest runs the prepared process to completion and captures the
// full digest, exactly as the chaos baseline does.
func finishDigest(t *testing.T, env *workload.Env, p *kernel.Process, budget int64) Digest {
	t.Helper()
	if err := env.Run(p, budget); err != nil {
		t.Fatalf("run: %v", err)
	}
	d := CaptureDigest(env.M.CPU, env.M.PM)
	m, err := env.Measured()
	if err != nil {
		t.Fatalf("measured: %v", err)
	}
	d.Measured = m
	d.Killed, d.KillMsg = p.Killed, p.KillMsg
	return d
}

// requireAllGrades asserts digest agreement at every comparison grade the
// engine distinguishes: bit-identity (Equal), architectural state
// (StateEqual), the PAN-footprint discriminator (which must NOT claim a
// difference), and the human-readable delta.
func requireAllGrades(t *testing.T, label string, cold, forked Digest) {
	t.Helper()
	if !forked.Equal(cold) {
		t.Errorf("%s: fork not bit-identical to cold boot: %s", label, cold.Delta(forked))
	}
	if !forked.StateEqual(cold) {
		t.Errorf("%s: fork diverges architecturally from cold boot", label)
	}
	if forked.PANFootprintOnly(cold) {
		t.Errorf("%s: fork differs from cold boot by the PAN bit", label)
	}
	if got := cold.Delta(forked); got != "identical" {
		t.Errorf("%s: delta = %q, want identical", label, got)
	}
}

// TestForkIdentityAcrossWorkloads proves fork-vs-cold-boot bit-identity for
// every chaos scenario (the three Table 5 variants, including the
// watchpoint baseline), a guest-mode configuration, and both pipeline
// ablations — and that a SECOND fork of the same zygote (the chaos
// engine's re-fork-per-injection pattern) is identical too.
func TestForkIdentityAcrossWorkloads(t *testing.T) {
	configs := map[string]workload.DomainSwitchConfig{}
	for _, scn := range Scenarios() {
		configs[scn.Name] = scn.Config()
	}
	base := Scenarios()[0].Config()
	guest := base
	guest.Platform.Guest = true
	configs["ttbr-8-guest"] = guest
	noDecode := base
	noDecode.DisableDecodeCache = true
	configs["ttbr-8-nodecode"] = noDecode
	noFast := base
	noFast.DisableHostFastpaths = true
	configs["ttbr-8-nofastpath"] = noFast

	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			budget := workload.DomainSwitchBudget(cfg)
			env, p, err := workload.PrepareDomainSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold := finishDigest(t, env, p, budget)

			for _, round := range []string{"first-fork", "re-fork"} {
				envF, pF, err := workload.ForkDomainSwitch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				forked := finishDigest(t, envF, pF, budget)
				requireAllGrades(t, name+"/"+round, cold, forked)
			}
		})
	}
}

// TestForkIdentityAcrossBackends proves the same bit-identity under every
// isolation backend: the forked child of a prepared backend machine runs
// to the same digest as the machine itself would have.
func TestForkIdentityAcrossBackends(t *testing.T) {
	for _, backend := range workload.BackendOrder() {
		t.Run(backend, func(t *testing.T) {
			// The lightzone cell is the Table 5 scalable-TTBR cell; the
			// other substrates have dedicated switch programs.
			prepare := func() (*workload.Env, *kernel.Process, error) {
				if backend == "lightzone" {
					return workload.PrepareDomainSwitch(workload.DomainSwitchConfig{
						Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
						Variant:  workload.VariantLZTTBR,
						Domains:  8, Iters: 100, Seed: workload.Table5Seed,
					})
				}
				return workload.PrepareBackendSwitch(workload.BackendSwitchConfig{
					Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
					Backend:  backend, Domains: 8, Iters: 100, Seed: workload.Table5Seed,
				})
			}
			budget := workload.DomainSwitchBudget(workload.DomainSwitchConfig{Iters: 100})

			envCold, pCold, err := prepare()
			if err != nil {
				t.Fatal(err)
			}
			envFork := envCold.Fork()
			pFork, ok := envFork.K.Process(pCold.PID)
			if !ok {
				t.Fatal("fork lost the benchmark process")
			}

			cold := finishDigest(t, envCold, pCold, budget)
			forked := finishDigest(t, envFork, pFork, budget)
			requireAllGrades(t, backend, cold, forked)
			if issues := envFork.M.PM.AuditCOW(); len(issues) != 0 {
				t.Errorf("COW audit after forked run: %v", issues)
			}
			t.Logf("backend %s: forked run dirtied %d pages", backend, envFork.M.PM.COWCopies())
		})
	}
}

// TestChaosForkVsColdClassification pins satellite safety for the chaos
// engine's fork adoption: every registered injection, driven through the
// default (forking) runner and through a cold-boot runner, must classify
// identically — same outcome, same expectation class, same delta text.
func TestChaosForkVsColdClassification(t *testing.T) {
	forkRunner := &chaosRunner{} // default: zygote fork
	coldRunner := &chaosRunner{prepare: workload.PrepareDomainSwitch}
	for _, inj := range Injections() {
		inj := inj
		t.Run(inj.Name, func(t *testing.T) {
			plan := Plan{Scenario: "ttbr-8", Injection: inj.Name,
				SliceTraps: 8, InjectAt: 3, Repeat: 1}
			fork := forkRunner.RunCase(plan)
			cold := coldRunner.RunCase(plan)
			if !reflect.DeepEqual(fork, cold) {
				t.Errorf("classification moved under forking:\nfork: %+v\ncold: %+v", fork, cold)
			}
			if !fork.Pass {
				t.Errorf("case failed: %+v", fork)
			}
		})
	}
}

// TestRegenerateChaosSeedJournal rebuilds the committed pre-fork seed
// journal from the cold-boot engine. Guarded by an environment variable:
// the journal is a fixture pinning pre-fork behaviour, so regenerating it
// is a deliberate act, never part of a normal test run.
func TestRegenerateChaosSeedJournal(t *testing.T) {
	if os.Getenv("LZ_REGEN_CHAOS_JOURNAL") == "" {
		t.Skip("set LZ_REGEN_CHAOS_JOURNAL=1 to regenerate testdata/chaos_prefork.journal.json")
	}
	runner := &chaosRunner{prepare: workload.PrepareDomainSwitch}
	var rows []string
	for _, inj := range Injections() {
		plan := Plan{Scenario: "ttbr-8", Injection: inj.Name,
			SliceTraps: 8, InjectAt: 3, Repeat: 1}
		res := runner.RunCase(plan)
		if !res.Pass {
			t.Fatalf("cold case failed, refusing to pin it: %+v", res)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	j := &Journal{Version: Version, Kind: KindBench,
		Config: RunConfig{Suites: []string{"chaos-prefork"}}, Rows: rows}
	j.Seal()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Write("testdata/chaos_prefork.journal.json"); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSeedJournalReplaysClean replays the committed pre-fork seed
// journal: the classifications recorded from the cold-boot engine before
// zygote forking landed must reproduce exactly under the forking default.
func TestChaosSeedJournalReplaysClean(t *testing.T) {
	j, err := ReadJournal("testdata/chaos_prefork.journal.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("seed journal corrupt: %v", err)
	}
	var runner chaosRunner // forking default
	for i, row := range j.Rows {
		var want ChaosResult
		if err := json.Unmarshal([]byte(row), &want); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		plan := Plan{Scenario: want.Scenario, Injection: want.Injection,
			SliceTraps: 8, InjectAt: 3, Repeat: 1}
		got := runner.RunCase(plan)
		got.Case = want.Case
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row %d (%s) drifted from the pre-fork journal:\ngot:  %+v\nwant: %+v",
				i, want.Injection, got, want)
		}
	}
}
