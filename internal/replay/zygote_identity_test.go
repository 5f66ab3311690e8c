package replay

// Fork-identity suite (DESIGN.md §14): a machine forked from a warmed
// zygote must be indistinguishable — by the full replay digest, at every
// comparison grade — from a machine cold-booted and driven to the same
// point. This is the contract that lets the chaos engine, the fleet and
// the calibration paths fork instead of boot without moving a single
// measured number.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/workload"
)

// finishDigest runs the prepared process to completion and captures the
// full digest, exactly as the chaos baseline does.
func finishDigest(t testing.TB, env *workload.Env, p *kernel.Process, budget int64) Digest {
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

// TestForkIdentityAcrossBackends proves the same bit-identity for every
// prepared configuration: on each of the four platforms, each switch
// variant — grouped by the backend its machine boots with: the TTBR and
// PAN switches and both baselines on lightzone, and the overlay and
// granule switches — forks into a child that runs to the digest the
// machine itself reaches, and so do the zygote pool's first two children,
// the second adopting from the template the first published.
func TestForkIdentityAcrossBackends(t *testing.T) {
	workload.ResetZygotes()
	t.Cleanup(workload.ResetZygotes)
	variants := map[string][]workload.Variant{
		"lightzone": {workload.VariantLZTTBR, workload.VariantLZPAN, workload.VariantWatchpoint, workload.VariantLwC},
		"overlay":   {workload.VariantOverlay},
		"granule":   {workload.VariantGranule},
	}
	for _, backend := range core.Backends() {
		t.Run(backend, func(t *testing.T) {
			if len(variants[backend]) == 0 {
				t.Fatalf("no switch variant for backend %s", backend)
			}
			for _, plat := range workload.AllPlatforms() {
				for _, v := range variants[backend] {
					name := plat.String() + "/" + string(v)
					t.Run(name, func(t *testing.T) {
						cfg := workload.DomainSwitchConfig{
							Platform: plat, Variant: v,
							Domains: 4, Iters: 50, Seed: workload.Table5Seed,
						}
						budget := workload.DomainSwitchBudget(cfg)

						envCold, pCold, err := workload.PrepareDomainSwitch(cfg)
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
						requireAllGrades(t, name, cold, forked)
						if issues := envFork.M.PM.AuditCOW(); len(issues) != 0 {
							t.Errorf("fork-family audit after forked run: %v", issues)
						}

						// Through the zygote pool: the first child publishes
						// its code template, the second adopts from it, and
						// both reach the same digest. The second child must
						// adopt, so the test cannot stop exercising adoption.
						first, d := forkFromPool(t, cfg)
						requireAllGrades(t, name+"/publisher", cold, d)
						if n := first.M.CPU.Stats.CodeAdopted; n != 0 {
							t.Errorf("publisher adopted %d blocks with no template published", n)
						}
						second, d := forkFromPool(t, cfg)
						requireAllGrades(t, name+"/adopter", cold, d)
						if s := second.M.CPU.Stats; s.CodeAdopted == 0 {
							t.Errorf("second pool child adopted no block (built %d)", s.CodeBlocks)
						}
					})
				}
			}
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

// forkFromPool forks a child of cfg's zygote and runs it to its digest.
func forkFromPool(t testing.TB, cfg workload.DomainSwitchConfig) (*workload.Env, Digest) {
	t.Helper()
	env, p, err := workload.ForkDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, finishDigest(t, env, p, workload.DomainSwitchBudget(cfg))
}

// coldDigest cold-boots cfg and runs it to its digest.
func coldDigest(t testing.TB, cfg workload.DomainSwitchConfig) Digest {
	t.Helper()
	env, p, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return finishDigest(t, env, p, workload.DomainSwitchBudget(cfg))
}

// TestZygoteTemplateRewrittenCodeNotAdopted: a child forked after its
// zygote published a template rewrites one word of a template block — the
// loop counter's decrement, SUBS x11, x11, #1 becomes #2 — through
// PhysMem.Write and InvalidateCode before it runs. The block holding that
// word is built, not adopted, and the new word runs: the child reaches the
// digest of a cold boot patched the same way, not the unpatched one. A
// sibling forked afterwards still adopts and reaches the unpatched digest.
func TestZygoteTemplateRewrittenCodeNotAdopted(t *testing.T) {
	workload.ResetZygotes()
	t.Cleanup(workload.ResetZygotes)
	cfg := workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.VariantLZTTBR, Domains: 8, Iters: 200, Seed: 1,
	}
	budget := workload.DomainSwitchBudget(cfg)
	oldWord, newWord := arm64.SUBSImm(11, 11, 1), arm64.SUBSImm(11, 11, 2)
	patch := func(env *workload.Env, p *kernel.Process) {
		t.Helper()
		text := make([]byte, mem.PageSize)
		if err := p.AS.ReadVA(kernel.TextBase, text); err != nil {
			t.Fatal(err)
		}
		off := -1
		for i := 0; i+4 <= len(text); i += 4 {
			if binary.LittleEndian.Uint32(text[i:]) == oldWord {
				if off >= 0 {
					t.Fatal("the loop decrement occurs twice in the text page")
				}
				off = i
			}
		}
		if off < 0 {
			t.Fatal("loop decrement not found in the text page")
		}
		va := kernel.TextBase + mem.VA(off)
		res, err := p.AS.S1.Walk(va)
		if err != nil || !res.Found {
			t.Fatalf("walk %v: %+v, %v", va, res, err)
		}
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], newWord)
		if err := env.M.PM.Write(res.PA, w[:]); err != nil {
			t.Fatal(err)
		}
		env.M.CPU.InvalidateCode(va)
	}

	unpatched := coldDigest(t, cfg)
	envCold, pCold, err := workload.PrepareDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	patch(envCold, pCold)
	patchedCold := finishDigest(t, envCold, pCold, budget)
	if patchedCold.Equal(unpatched) {
		t.Fatal("the patched word does not change the outcome")
	}

	publisher, d := forkFromPool(t, cfg) // publishes the template
	requireAllGrades(t, "publisher", unpatched, d)
	built := publisher.M.CPU.Stats.CodeBlocks

	env, p, err := workload.ForkDomainSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	patch(env, p)
	requireAllGrades(t, "patched child", patchedCold, finishDigest(t, env, p, budget))
	s := env.M.CPU.Stats
	if s.CodeAdopted == 0 {
		t.Error("patched child adopted nothing: the template was not published")
	}
	holdsNew := false
	for _, b := range env.M.CPU.DecodedBlocks() {
		if slices.Contains(b.Raw, newWord) {
			holdsNew = true
		}
	}
	if !holdsNew {
		t.Error("no cached block holds the rewritten word")
	}

	sibling, d := forkFromPool(t, cfg)
	requireAllGrades(t, "sibling", unpatched, d)
	ss := sibling.M.CPU.Stats
	if ss.CodeAdopted == 0 {
		t.Error("sibling forked after the rewrite adopted nothing")
	}
	if s.CodeBlocks <= ss.CodeBlocks {
		t.Errorf("patched child built %d blocks, its unpatched sibling %d: the rewritten block was adopted",
			s.CodeBlocks, ss.CodeBlocks)
	}
	t.Logf("blocks built: publisher %d, patched child %d, sibling %d", built, s.CodeBlocks, ss.CodeBlocks)
}

// TestZygoteTemplateConcurrentChildren runs children of one zygote on
// separate goroutines: two forked before any child finished, some forked
// while those run (before, during or after publication), and two after
// publication. Every child reaches a cold boot's digest; under -race this
// checks that the published template is read without a data race.
func TestZygoteTemplateConcurrentChildren(t *testing.T) {
	workload.ResetZygotes()
	t.Cleanup(workload.ResetZygotes)
	cfg := workload.DomainSwitchConfig{
		Platform: workload.Platform{Prof: arm64.ProfileCortexA55()},
		Variant:  workload.VariantLZTTBR, Domains: 8, Iters: 200, Seed: 1,
	}
	budget := workload.DomainSwitchBudget(cfg)
	cold := coldDigest(t, cfg)

	type child struct {
		env *workload.Env
		p   *kernel.Process
	}
	fork := func() child {
		env, p, err := workload.ForkDomainSwitch(cfg)
		if err != nil {
			t.Error(err)
		}
		return child{env, p}
	}
	var mu sync.Mutex
	var digests []Digest
	run := func(c child, wg *sync.WaitGroup) {
		defer wg.Done()
		if c.env == nil {
			return
		}
		if err := c.env.Run(c.p, budget); err != nil {
			t.Error(err)
			return
		}
		d := CaptureDigest(c.env.M.CPU, c.env.M.PM)
		m, err := c.env.Measured()
		if err != nil {
			t.Error(err)
		}
		d.Measured = m
		d.Killed, d.KillMsg = c.p.Killed, c.p.KillMsg
		mu.Lock()
		digests = append(digests, d)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	early := []child{fork(), fork()}
	for _, c := range early {
		wg.Add(1)
		go run(c, &wg)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go run(fork(), &wg)
	}
	wg.Wait()
	late := []child{fork(), fork()}
	for _, c := range late {
		wg.Add(1)
		go run(c, &wg)
	}
	wg.Wait()

	if len(digests) != 7 {
		t.Fatalf("%d of 7 children finished", len(digests))
	}
	for i, d := range digests {
		requireAllGrades(t, fmt.Sprintf("child %d", i), cold, d)
	}
	for i, c := range late {
		if c.env.M.CPU.Stats.CodeAdopted == 0 {
			t.Errorf("child %d forked after publication adopted nothing", i)
		}
	}
}
