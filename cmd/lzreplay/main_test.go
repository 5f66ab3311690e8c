package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lightzone/internal/replay"
)

func benchJournal(t *testing.T, dir, name string, rows []string) string {
	t.Helper()
	return writeBenchJournal(t, filepath.Join(dir, name),
		replay.RunConfig{Suites: []string{"table5"}, Iters: 100, Seed: 42, Parallel: 2}, rows)
}

func writeBenchJournal(t *testing.T, path string, cfg replay.RunConfig, rows []string) string {
	t.Helper()
	j := &replay.Journal{
		Version: replay.Version,
		Kind:    replay.KindBench,
		Config:  cfg,
		Inputs:  []replay.Input{{Key: "table5/iters", Value: 100}},
		Rows:    rows,
	}
	j.Seal()
	if err := j.Write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInspectBenchJournal(t *testing.T) {
	dir := t.TempDir()
	for _, interp := range []bool{false, true} {
		cfg := replay.RunConfig{Suites: []string{"table5"}, Iters: 100, Seed: 42, Parallel: 2, Interp: interp}
		path := writeBenchJournal(t, filepath.Join(dir, fmt.Sprintf("interp-%v.json", interp)), cfg,
			[]string{`{"r":1}`, `{"r":2}`})
		var sb strings.Builder
		if err := doInspect(&sb, path); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		for _, want := range []string{"valid bench journal", "table5", "2 (sha256", "table5/iters",
			fmt.Sprintf("interp=%v", interp)} {
			if !strings.Contains(out, want) {
				t.Errorf("inspect output missing %q:\n%s", want, out)
			}
		}
	}
}

func TestInspectRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	j := &replay.Journal{Version: replay.Version, Kind: replay.KindBench, Rows: []string{"x"}, RowsSHA: "tampered"}
	path := filepath.Join(dir, "bad.json")
	if err := j.Write(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := doInspect(&sb, path); err == nil {
		t.Fatal("corrupt journal inspected cleanly")
	}
}

func TestDiffJournals(t *testing.T) {
	dir := t.TempDir()
	a := benchJournal(t, dir, "a.json", []string{"same", "left"})
	b := benchJournal(t, dir, "b.json", []string{"same", "right"})
	var sb strings.Builder
	if err := doDiff(&sb, a, b, 5); err == nil {
		t.Fatal("divergent journals diffed clean")
	}
	if !strings.Contains(sb.String(), "row 1") {
		t.Errorf("diff output missing the divergent row:\n%s", sb.String())
	}
	sb.Reset()
	if err := doDiff(&sb, a, a, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "identical") {
		t.Errorf("identical diff not reported:\n%s", sb.String())
	}
}

func TestInspectChaosJournalAndRun(t *testing.T) {
	dir := t.TempDir()
	plan := replay.DerivePlans(1, 3)[0]
	j := replay.ChaosJournal(plan, "")
	path := filepath.Join(dir, "chaos.json")
	if err := j.Write(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := doInspect(&sb, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), plan.Injection) {
		t.Errorf("inspect output missing injection name:\n%s", sb.String())
	}
	sb.Reset()
	// A clean derived plan must pass when re-run against the current build.
	if err := doRun(&sb, path); err != nil {
		t.Fatalf("derived chaos case fails under -run: %v\n%s", err, sb.String())
	}
}

func TestRunAndMinimizeDiffFuzzJournal(t *testing.T) {
	dir := t.TempDir()
	words := replay.GenWords(5, 64)
	j := replay.FuzzJournal(5, words, "")
	path := filepath.Join(dir, "fuzz.json")
	if err := j.Write(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	// The pipelines agree on generated streams, so -run passes...
	if err := doRun(&sb, path); err != nil {
		t.Fatal(err)
	}
	// ...and -minimize refuses: there is no divergence to shrink.
	if err := doMinimize(&sb, path, filepath.Join(dir, "min.json")); err == nil {
		t.Fatal("minimize accepted a non-diverging stream")
	}
}

func TestDispatchModeValidation(t *testing.T) {
	var sb strings.Builder
	if err := dispatch(&sb, false, false, false, false, "", 5, nil); err == nil {
		t.Error("no mode accepted")
	}
	if err := dispatch(&sb, true, true, false, false, "", 5, nil); err == nil {
		t.Error("two modes accepted")
	}
	if err := dispatch(&sb, true, false, false, false, "", 5, []string{"a", "b"}); err == nil {
		t.Error("-inspect with two paths accepted")
	}
	if err := dispatch(&sb, false, false, false, true, "", 5, []string{"a"}); err == nil {
		t.Error("-minimize without -o accepted")
	}
}
