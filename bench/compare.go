package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparer reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one saved run: its workload, from the header line, and its
// metrics, from the JSON last line.
type runOutput struct {
	workload string
	metrics  map[string]float64
}

func readRunOutput(path string) (runOutput, error) {
	var out runOutput
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "# workload="); ok && out.workload == "" {
			out.workload, _, _ = strings.Cut(rest, " ")
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("%s: %w", path, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return out, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	if out.workload == "" {
		return out, fmt.Errorf("%s: no '# workload=' header line", path)
	}
	out.metrics = map[string]float64{}
	for name, m := range res.Metrics {
		out.metrics[name] = m.Value
	}
	return out, nil
}

// compareMain reads BENCHMARK.json from the working directory and compares
// the run outputs before "--" (the parent, A) with those after it (the
// change, B), per workload and end-to-end metric.
func compareMain(args []string, w io.Writer) error {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("usage: -compare A1 A2 ... -- B1 B2 ...")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	load := func(paths []string) (map[string][]runOutput, error) {
		by := map[string][]runOutput{}
		for _, p := range paths {
			r, err := readRunOutput(p)
			if err != nil {
				return nil, err
			}
			by[r.workload] = append(by[r.workload], r)
		}
		return by, nil
	}
	as, err := load(a)
	if err != nil {
		return err
	}
	bs, err := load(b)
	if err != nil {
		return err
	}
	var names []string
	for wl := range as {
		if _, ok := bs[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload appears on both sides")
	}
	fmt.Fprintf(w, "%-11s %-12s %-36s %-36s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "wins", "verdict")
	for _, wl := range names {
		for _, m := range bm.EndToEnd {
			av, bv := values(as[wl], m.Name), values(bs[wl], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := compareMetric(av, bv, m.Bound, m.Better == "lower")
			fmt.Fprintf(w, "%-11s %-12s %-36s %-36s %+7.2f%% %6s  %s\n", wl, m.Name,
				summary(av), summary(bv), 100*v.change, fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	return nil
}

func values(runs []runOutput, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", med, q1, q3, len(xs))
}

// comparison is one metric's verdict between A (parent) and B (change).
type comparison struct {
	change  float64 // (median B - median A) / median A
	wins    int     // pairs where B reads better than A
	pairs   int
	verdict string
}

// compareMetric applies the benchmark's rule. Where A's quartile spread is
// wider than the bound, the result is "unresolved" unless every B run
// reads better (or worse) than every A run. Otherwise B is "worse" when its
// median is worse than A's by more than the bound, and "better" when it
// wins at least nine tenths of the pairs (A[i], B[i]) and its median beats
// A's by more than A's quartile spread. Anything else is "no change".
func compareMetric(a, b []float64, bound float64, lowerBetter bool) comparison {
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	c := comparison{change: ratio(mb-ma, ma), pairs: min(len(a), len(b))}
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	worse := c.change // how much worse B reads, as a share of A's median
	if !lowerBetter {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case len(a) < 2 || ratio(q3-q1, ma) > bound:
		switch {
		case allBetter:
			c.verdict = "better"
		case allWorse:
			c.verdict = "worse"
		default:
			c.verdict = "unresolved"
		}
	case worse > bound:
		c.verdict = "worse"
	case 10*c.wins >= 9*c.pairs && better(mb, ma) && math.Abs(mb-ma) > q3-q1:
		c.verdict = "better"
	default:
		c.verdict = "no change"
	}
	return c
}
