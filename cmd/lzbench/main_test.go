package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lightzone/internal/cpu"
	"lightzone/internal/replay"
)

// lzbench runs the command in-process and returns its exit code and output.
func lzbench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCommittedJournalsReplay replays the committed bench journals: the
// full paper evaluation recorded before the backend extraction, and the
// serve harness. Every row must come back byte-identical.
func TestCommittedJournalsReplay(t *testing.T) {
	for _, path := range []string{"../../testdata/seed_pr6.journal", "../../testdata/serve_pr7.journal"} {
		j, err := replay.ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := lzbench(t, "-replay", path, "-parallel", "2")
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", path, code, stderr)
		}
		if want := strings.Join(j.Rows, "\n") + "\n"; stdout != want {
			t.Errorf("%s: replayed stdout differs from the journal's rows", path)
		}
	}
	// The chaos pre-fork pin is replayed by internal/replay; here it only
	// has to keep decoding under the current RunConfig.
	if _, err := replay.ReadJournal("../../internal/replay/testdata/chaos_prefork.journal.json"); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryOrder pins the suite list, its order, and what -all selects.
func TestRegistryOrder(t *testing.T) {
	want := []string{"table4", "table5", "figure3", "figure4", "figure5", "pentest",
		"ablations", "invariants", "backends", "serve", "chaos"}
	if got := suiteNames(); !slices.Equal(got, want) {
		t.Errorf("registry = %v, want %v", got, want)
	}
	var all []string
	for _, s := range suites() {
		if s.all {
			all = append(all, s.name)
		}
	}
	if want := want[:7]; !slices.Equal(all, want) {
		t.Errorf("-all = %v, want %v", all, want)
	}
}

// TestRecordReplayEverySuite records every registered suite at small sizes
// at two fleet widths and replays one recording at the other width. All
// three runs must emit the same bytes, in registry order whatever order
// -suite named the suites in.
func TestRecordReplayEverySuite(t *testing.T) {
	dir := t.TempDir()
	small := []string{"-suite", "chaos,serve,backends,invariants", "-all",
		"-iters", "200", "-chaos", "3", "-rps", "2000", "-duration", "0.1"}
	var outputs []string
	for _, width := range []string{"1", "3"} {
		path := filepath.Join(dir, "w"+width+".journal.json")
		code, rec, stderr := lzbench(t, append(small, "-parallel", width, "-record", path)...)
		if code != 0 {
			t.Fatalf("record at -parallel %s: exit %d\n%s", width, code, stderr)
		}
		outputs = append(outputs, rec)
	}
	path := filepath.Join(dir, "w1.journal.json")
	code, rep, stderr := lzbench(t, "-replay", path, "-parallel", "3")
	if code != 0 {
		t.Fatalf("replay at -parallel 3: exit %d\n%s", code, stderr)
	}
	outputs = append(outputs, rep)
	for i, o := range outputs[1:] {
		if o != outputs[0] {
			t.Errorf("output %d differs from the -parallel 1 recording", i+1)
		}
	}

	j, err := replay.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(j.Config.Suites, suiteNames()) {
		t.Errorf("journal suites = %v, want the registry order %v", j.Config.Suites, suiteNames())
	}
	for _, key := range []string{"table5/iters", "backends/iters", "serve/rps_milli", "chaos/cases", "chaos/seed"} {
		if !slices.ContainsFunc(j.Inputs, func(in replay.Input) bool { return in.Key == key }) {
			t.Errorf("journal does not pin %s", key)
		}
	}
	for _, kind := range []string{"table4", "table5", "figure", "memory", "pentest", "planted",
		"ablation", "verify", "backend", "serve-cell", "serve", "chaos"} {
		if !strings.Contains(outputs[0], `"kind":"`+kind+`"`) {
			t.Errorf("no %q rows in the recording", kind)
		}
	}
}

// TestInterpIdentical runs the paper evaluation on the default cached
// pipeline and on the plain Step interpreter: the rows must be the same
// bytes. -interp is lzbench's one pipeline switch, so this is the oracle
// check every cached tier answers to.
func TestInterpIdentical(t *testing.T) {
	var outs []string
	for _, extra := range [][]string{nil, {"-interp"}} {
		before := cpu.ReadHostPerf()
		code, stdout, stderr := lzbench(t, append([]string{"-all", "-json"}, extra...)...)
		if code != 0 {
			t.Fatalf("lzbench -all -json %v: exit %d\n%s", extra, code, stderr)
		}
		// The interpreter never replays cached code; the default pipeline
		// replays most of it.
		if hits, interp := cpu.ReadHostPerf().Sub(before).CodeHits, extra != nil; (hits == 0) != interp {
			t.Errorf("lzbench -all -json %v: %d instructions replayed from cached blocks", extra, hits)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] {
		t.Error("-interp rows differ from the default pipeline's")
	}
}

// TestInvalidSelection requires a bad or missing selection to exit 2 and
// name the bad value, without running anything.
func TestInvalidSelection(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-suite", "table6"}, `"table6"`},
		{[]string{"-suite", ""}, `unknown suite ""`},
		{[]string{"-suite", "table4,,table5"}, `unknown suite ""`},
		{[]string{"-suite", "figure4,table7", "-json"}, `"table7"`},
		{[]string{"-json"}, "no suite selected"},
		{[]string{"-all", "extra"}, `"extra"`},
		{[]string{"-replay", "j.json", "-suite", "table4"}, "-replay takes its suites from the journal"},
	} {
		code, stdout, stderr := lzbench(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("lzbench %q: exit %d, stdout %q, stderr missing %q:\n%s", tc.args, code, stdout, tc.want, stderr)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestOutputErrorsFail requires a failed write on stdout or an output file
// to make the exit code nonzero.
func TestOutputErrorsFail(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"-suite", "table4", "-json"}, failWriter{}, &errb); code != 1 || !strings.Contains(errb.String(), "disk full") {
		t.Errorf("failing stdout: exit %d, stderr %q", code, errb.String())
	}
	missing := filepath.Join(t.TempDir(), "missing")
	for _, args := range [][]string{
		{"-suite", "figure5", "-csv", missing},
		{"-suite", "table4", "-memprofile", filepath.Join(missing, "mem.pprof")},
	} {
		if code, _, stderr := lzbench(t, args...); code != 1 {
			t.Errorf("lzbench %q: exit %d, want 1\n%s", args, code, stderr)
		}
	}
}
