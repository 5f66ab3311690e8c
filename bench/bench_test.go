package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares, and checks its
// workloads are the ones the benchmark runs.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	for _, m := range bm.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bm.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runSmall runs a workload for two units per phase, without set-up
// processes and with the shortest probes, and returns its spans when
// traced.
func runSmall(t *testing.T, wl string, trace bool) (*result, []span) {
	t.Helper()
	o := options{workload: wl, seed: 7, trace: trace, tier: "default", units: 2,
		probeSeconds: 0.01, spans: filepath.Join(t.TempDir(), "spans.json")}
	res, err := runBench(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", wl, res.Correct, res.Failed, res.Attempted)
	}
	if !trace {
		return res, nil
	}
	data, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	return res, spans
}

func TestWorkloadsTracedRunsPass(t *testing.T) {
	_, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, spans := runSmall(t, w.name, true)
			if got := names(res.Metrics); !reflect.DeepEqual(got, perLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, perLayer)
			}
			checkSpans(t, spans)
		})
	}
}

func TestUntracedRunReportsEndToEndMetrics(t *testing.T) {
	endToEnd, _ := declared(t)
	res, _ := runSmall(t, "fork-fleet", false)
	if got := names(res.Metrics); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, endToEnd)
	}
}

// checkSpans checks that every child span lies inside its parent, in the
// same unit, and that no span's self time is negative.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	byID := map[int]span{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Unit != s.Unit || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if roots == 0 {
		t.Error("no unit spans")
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %d", id, self)
		}
	}
}

// TestCountersRepeat runs workloads twice at one seed: every counter the
// emulator reports must read the same.
func TestCountersRepeat(t *testing.T) {
	for _, wl := range []string{"fork-fleet", "chaos"} {
		a, _ := runSmall(t, wl, true)
		b, _ := runSmall(t, wl, true)
		for name, m := range a.Metrics {
			if strings.HasPrefix(name, "go.") || (m.Unit != "count" && m.Unit != "ratio") {
				continue
			}
			if b.Metrics[name] != m {
				t.Errorf("%s %s: %v then %v", wl, name, m.Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestDeclaredMetricNames(t *testing.T) {
	endToEnd, perLayer := declared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, n := range append(endToEnd, perLayer...) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated metric name %q", n)
		}
		seen[n] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=10)[8]
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 9, 10); got != 9.9 {
		t.Errorf("p90 of 1..10 = %v, want 9.9", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", steady, steady, true, "no change"},
		{"faster", steady, shift(steady, 0.9), true, "better"},
		{"slower beyond bound", steady, shift(steady, 1.2), true, "worse"},
		{"slower within bound", steady, shift(steady, 1.02), true, "no change"},
		{"higher is better", steady, shift(steady, 1.1), false, "better"},
		{"noisy parent", noisy, shift(noisy, 0.95), true, "unresolved"},
		{"noisy but every run better", noisy, shift(steady, 0.5), true, "better"},
	} {
		if got := compareMetric(c.a, c.b, 0.05, c.lowerBetter).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-seconds", "0.01"},
		{"-workload", "chaos", "-trace", "2"},
		{"-compare", "only-one-side.out"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}
