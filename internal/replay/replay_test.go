package replay

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestJournalSealValidateRoundTrip(t *testing.T) {
	j := &Journal{
		Version: Version,
		Kind:    KindBench,
		Config:  RunConfig{Suites: []string{"table5"}, Iters: 100, Seed: 42, Parallel: 4},
		Rows:    []string{`{"suite":"table5","cell":0}`, `{"suite":"table5","cell":1}`},
	}
	j.Seal()
	if err := j.Validate(); err != nil {
		t.Fatalf("sealed journal invalid: %v", err)
	}
	path := filepath.Join(t.TempDir(), "run.journal.json")
	if err := j.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsSHA != j.RowsSHA || len(got.Rows) != len(j.Rows) || got.Config.Seed != 42 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
}

func TestJournalValidateRejects(t *testing.T) {
	j := &Journal{Version: Version + 1, Kind: KindBench}
	if err := j.Validate(); err == nil {
		t.Error("wrong version accepted")
	}
	j = &Journal{Version: Version, Kind: "mystery"}
	if err := j.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	j = &Journal{Version: Version, Kind: KindBench, Rows: []string{"a"}, RowsSHA: "bogus"}
	if err := j.Validate(); err == nil {
		t.Error("corrupted rows accepted")
	}
	j = &Journal{Version: Version, Kind: KindChaos}
	if err := j.Validate(); err == nil {
		t.Error("chaos journal without chaos section accepted")
	}
}

func TestDiffRows(t *testing.T) {
	a := []string{"same", "left", "same2", "tail"}
	b := []string{"same", "right", "same2"}
	diffs := DiffRows(a, b, 10)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2: %+v", len(diffs), diffs)
	}
	if diffs[0].Index != 1 || diffs[0].A != "left" || diffs[0].B != "right" {
		t.Errorf("first diff: %+v", diffs[0])
	}
	if diffs[1].Index != 3 || diffs[1].A != "tail" || diffs[1].B != "" {
		t.Errorf("second diff: %+v", diffs[1])
	}
	if got := DiffRows(a, b, 1); len(got) != 1 {
		t.Errorf("maxDiffs ignored: %d", len(got))
	}
	if got := DiffRows(a, a, 10); len(got) != 0 {
		t.Errorf("equal rows diffed: %+v", got)
	}
}

func TestReadJournalMissing(t *testing.T) {
	if _, err := ReadJournal(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing journal read succeeded")
	}
}

func TestChaosJournalPinsCase(t *testing.T) {
	plans := DerivePlans(3, 1)
	j := ChaosJournal(plans[2], "synthetic failure")
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Chaos.Plan.Case != 2 || j.Chaos.Scenario.Name != plans[2].Scenario {
		t.Errorf("journal does not pin the plan: %+v", j.Chaos)
	}
}

func TestDerivePlansDeterministicAndPrefixStable(t *testing.T) {
	a, b := DerivePlans(8, 42), DerivePlans(8, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d differs across derivations: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Extending the sweep must keep the existing prefix.
	long := DerivePlans(16, 42)
	for i := range a {
		if long[i] != a[i] {
			t.Fatalf("plan %d changed when n grew: %+v vs %+v", i, long[i], a[i])
		}
	}
	// Every plan must reference registered entities and respect gating.
	for _, p := range DerivePlans(64, 7) {
		scn, ok := ScenarioByName(p.Scenario)
		if !ok {
			t.Fatalf("plan references unknown scenario %q", p.Scenario)
		}
		inj, ok := InjectionByName(p.Injection)
		if !ok {
			t.Fatalf("plan references unknown injection %q", p.Injection)
		}
		if inj.NeedsGates && !scn.Gates {
			t.Errorf("gate injection %s assigned to gateless scenario %s", inj.Name, scn.Name)
		}
	}
}

func TestInjectionRegistryShape(t *testing.T) {
	for _, inj := range Injections() {
		if inj.Expect == ExpectFlagged && inj.Checker == "" {
			t.Errorf("%s: flagged expectation without a named checker", inj.Name)
		}
		if inj.Apply == nil {
			t.Errorf("%s: no apply", inj.Name)
		}
	}
	if _, ok := InjectionByName("no-such-fault"); ok {
		t.Error("unknown injection resolved")
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Error("unknown scenario resolved")
	}
}

func TestErrNotReadyIsSentinel(t *testing.T) {
	if !errors.Is(ErrNotReady, ErrNotReady) {
		t.Fatal("sentinel broken")
	}
}
