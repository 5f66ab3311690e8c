// Command lzinspect disassembles LightZone's generated security-critical
// code — the TTBR1-mapped secure call gates (§6.2) and the trap-forwarding
// stub (§5.1.3) — and explains the sanitizer's Table 3 classification of
// arbitrary instruction words.
//
// Usage:
//
//	lzinspect -gate 0          # disassemble call gate 0
//	lzinspect -stub            # disassemble the trap stub's vectors
//	lzinspect -word 0xd518200a # classify an instruction under the ttbr, pan and overlay policies
//	lzinspect -pipeline        # execution-pipeline counters for a probe run
//	lzinspect -invariants      # chokepoint-verified probe run + final report
//	lzinspect -invariants -json # the same as a machine-readable JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/trace"
	"lightzone/internal/workload"
)

func main() {
	var (
		gate     = flag.Int("gate", -1, "disassemble the call gate with this id")
		stub     = flag.Bool("stub", false, "disassemble the trap stub vectors")
		word     = flag.String("word", "", "classify an instruction word (hex) under the Table 3 policies")
		pipeline = flag.Bool("pipeline", false, "run a domain-switch probe and report TLB + decode-cache counters")
		invar    = flag.Bool("invariants", false, "run a chokepoint-verified domain-switch probe and report the invariant trace")
		jsonMode = flag.Bool("json", false, "with -invariants: emit the verification result as one JSON object")
	)
	flag.Parse()
	if err := run(*gate, *stub, *word, *pipeline, *invar, *jsonMode); err != nil {
		fmt.Fprintln(os.Stderr, "lzinspect:", err)
		os.Exit(1)
	}
}

func run(gate int, stub bool, word string, pipeline, invariants, jsonMode bool) error {
	any := false
	if gate >= 0 {
		any = true
		listing, err := core.GateListing(gate)
		if err != nil {
			return err
		}
		fmt.Printf("secure call gate %d (TTBR1-mapped, %d-byte slot):\n%s", gate, core.GateSlotLen, listing)
	}
	if stub {
		any = true
		fmt.Printf("trap-forwarding stub (VBAR_EL1):\n%s", core.StubListing())
	}
	if word != "" {
		any = true
		w, err := strconv.ParseUint(strings.TrimPrefix(word, "0x"), 16, 32)
		if err != nil {
			return fmt.Errorf("bad word %q: %w", word, err)
		}
		fmt.Print(classifyWord(uint32(w)))
	}
	if pipeline {
		any = true
		if err := printPipeline(); err != nil {
			return err
		}
	}
	if invariants {
		any = true
		if err := printInvariants(jsonMode); err != nil {
			return err
		}
	}
	if !any {
		flag.Usage()
	}
	return nil
}

// classifyWord disassembles w and gives the sanitizer's Table 3 verdict on
// it under each enforcing policy, one line per policy.
func classifyWord(w uint32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#08x  %s\n", w, arm64.Disassemble(w))
	for _, pol := range []core.SanPolicy{core.SanTTBR, core.SanPAN, core.SanOverlay} {
		verdict := "allowed"
		if reason := core.CheckWord(w, pol); reason != "" {
			verdict = "SENSITIVE: " + reason
		}
		fmt.Fprintf(&b, "  policy %-4v  %s\n", pol, verdict)
	}
	return b.String()
}

// printPipeline runs the TTBR-gate domain-switch probe on each cost profile
// (sharded across a default-width fleet; every probe owns a private machine
// and trace recorder) and reports what the cached execution pipeline did:
// TLB and decoded-block hit rates, block builds, staleness-driven
// re-decodes, and the module's invalidation trace summary, plus the merged
// all-profile timeline totals.
func printPipeline() error {
	fmt.Println("execution-pipeline counters (TTBR-gate probe, 8 domains, 2000 switches):")
	reports, err := workload.NewFleet(0).PipelineSweep(8, 2000)
	if err != nil {
		return err
	}
	for i, prof := range arm64.Profiles() {
		plat := workload.Platform{Prof: prof}
		rep := reports[i]
		s := rep.Stats
		fmt.Printf("  %s:\n", plat)
		fmt.Printf("    avg switch cycles    %.0f\n", rep.Result.AvgCycles)
		fmt.Printf("    TLB                  %d hits / %d misses (%.1f%% hit)\n",
			s.TLBHits, s.TLBMisses, pct(s.TLBHits, s.TLBMisses))
		fmt.Printf("    decode cache         %d hits / %d misses (%.1f%% hit), %d live blocks\n",
			s.CodeHits, s.CodeMisses, pct(s.CodeHits, s.CodeMisses), rep.CachedBlocks)
		fmt.Printf("    blocks built         %d (%d stale re-decodes, %d page invalidations)\n",
			s.CodeBlocks, s.CodeStale, s.CodeInvalidations)
		if rep.TraceSummary != "" {
			fmt.Printf("    trace                %s\n", rep.TraceSummary)
		}
	}
	recs := make([]*trace.Recorder, len(reports))
	for i, rep := range reports {
		recs[i] = rep.Trace
	}
	if merged := trace.Merge(recs...); merged.Len() > 0 {
		fmt.Printf("  all profiles:          %s\n", merged.Summary())
	}
	return nil
}

// invariantsJSON runs the chokepoint-verified probe and marshals its result
// — the stable schema consumers (and the schema test) rely on: name,
// machine, invariant_runs, findings, and the final per-checker report.
func invariantsJSON() ([]byte, error) {
	res, _, err := workload.VerifyProbe(workload.AllPlatforms()[0])
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// printInvariants runs a domain-switch probe with the static verifier
// attached to every mutation chokepoint and reports each verification as a
// trace event, followed by the final whole-machine report.
func printInvariants(jsonMode bool) error {
	if jsonMode {
		b, err := invariantsJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	res, rec, err := workload.VerifyProbe(workload.AllPlatforms()[0])
	if err != nil {
		return err
	}
	fmt.Printf("chokepoint invariant verification (TTBR-gate probe, 8 domains, %s):\n", res.Machine)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindInvariant {
			fmt.Printf("  %s\n", ev)
		}
	}
	fmt.Printf("final report: %d invariant runs, %d findings\n", res.InvariantRuns, res.Findings)
	for _, c := range res.Final.Checkers {
		fmt.Printf("  %-18s %d findings\n", c.Name, c.Findings)
	}
	for _, f := range res.Final.Findings {
		fmt.Printf("  %s\n", f)
	}
	return nil
}

func pct(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return 100 * float64(hit) / float64(hit+miss)
}
