package main

import (
	"bytes"
	"encoding/json"
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
	if c := j.Config; c.Iters != 200 || c.RPS != 2000 || c.DurationS != 0.1 || c.ChaosCases != 3 || c.ChaosSeed != 1 {
		t.Errorf("journal config = %+v, want iters 200, rps 2000, duration 0.1, chaos cases 3 and seed 1", c)
	}
	for _, kind := range []string{"table4", "table5", "figure", "memory", "pentest", "planted",
		"ablation", "verify", "backend", "serve-cell", "serve", "chaos"} {
		if !strings.Contains(outputs[0], `"kind":"`+kind+`"`) {
			t.Errorf("no %q rows in the recording", kind)
		}
	}
}

// TestReplayIgnoresInputFlags records the suites with inputs and replays
// the journal under different input flags: the journal's config wins, so
// the replay emits the recorded bytes.
func TestReplayIgnoresInputFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal.json")
	code, rec, stderr := lzbench(t, "-suite", "table5,backends,serve,chaos", "-record", path,
		"-iters", "150", "-backend", "overlay", "-rps", "1500", "-duration", "0.05",
		"-arrival", "bursty", "-chaos", "2", "-chaosseed", "4")
	if code != 0 {
		t.Fatalf("record: exit %d\n%s", code, stderr)
	}
	code, rep, stderr := lzbench(t, "-replay", path,
		"-iters", "300", "-backend", "granule", "-rps", "5", "-duration", "9",
		"-arrival", "poisson", "-chaos", "1", "-chaosseed", "9")
	if code != 0 {
		t.Fatalf("replay under conflicting flags: exit %d\n%s", code, stderr)
	}
	if rep != rec {
		t.Error("replay under conflicting flags differs from the recording")
	}
}

// TestBadInputEmitsNoRows requires an invalid input, from the flags or
// from a journal, to fail the run before any suite emits a row, even one
// selected ahead of the bad suite.
func TestBadInputEmitsNoRows(t *testing.T) {
	// A chaos journal whose config lacks the case count, as journals
	// recorded before the config carried it do.
	noCases := &replay.Journal{Version: replay.Version, Kind: replay.KindBench, Rows: []string{"{}"},
		Config: replay.RunConfig{Suites: []string{"table4", "chaos"}, Seed: 42}}
	noCases.Seal()
	path := filepath.Join(t.TempDir(), "nocases.journal.json")
	if err := noCases.Write(path); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-suite", "table4,backends", "-backend", "bogus"}, `unknown backend "bogus"`},
		{[]string{"-suite", "table4,chaos", "-chaos", "0"}, "-chaos"},
		{[]string{"-suite", "table4,serve", "-arrival", "weird"}, `unknown arrival process "weird"`},
		{[]string{"-replay", path}, "chaos_cases"},
	} {
		code, stdout, stderr := lzbench(t, tc.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("lzbench %q: exit %d, stdout %q, stderr missing %q:\n%s", tc.args, code, stdout, tc.want, stderr)
		}
	}
}

// TestServeInputsRunAsGiven runs the serve harness on inputs below one
// thousandth of their unit: every row and the journal carry them exactly,
// rather than the defaults that replace zero.
func TestServeInputsRunAsGiven(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal.json")
	code, stdout, stderr := lzbench(t, "-suite", "serve", "-rps", "2000", "-duration", "0.0004",
		"-slo", "0.0005", "-json", "-record", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	serveRows := 0
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var row struct {
			Kind      string  `json:"kind"`
			DurationS float64 `json:"duration_s"`
			SLOMicros float64 `json:"slo_us"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		if row.Kind != "serve" {
			continue
		}
		serveRows++
		if row.DurationS != 0.0004 || row.SLOMicros != 0.0005 {
			t.Errorf("serve row ran duration_s %g, slo_us %g; want 0.0004 and 0.0005", row.DurationS, row.SLOMicros)
		}
	}
	if serveRows == 0 {
		t.Error("no serve rows")
	}
	j, err := replay.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := j.Config; c.Arrival != "poisson" || c.RPS != 2000 || c.DurationS != 0.0004 || c.SLOMicros != 0.0005 {
		t.Errorf("journal config = %+v, want the flags", c)
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
