package main

import (
	"encoding/json"
	"testing"
)

// The -invariants -json output is a stable schema: top-level probe fields
// plus the final report with one entry per registered checker.
func TestInvariantsJSONSchema(t *testing.T) {
	b, err := invariantsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatalf("output is not a JSON object: %v", err)
	}
	for _, key := range []string{"name", "machine", "invariant_runs", "findings", "final"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("schema is missing %q (got keys %v)", key, keys(obj))
		}
	}
	var final struct {
		Procs    int `json:"procs"`
		Checkers []struct {
			Name     string `json:"name"`
			Findings int    `json:"findings"`
		} `json:"checkers"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(obj["final"], &final); err != nil {
		t.Fatalf("final report: %v", err)
	}
	if len(final.Checkers) != 7 {
		t.Errorf("final report lists %d checkers, want 7", len(final.Checkers))
	}
	semantics, aliasing := false, false
	for _, c := range final.Checkers {
		switch c.Name {
		case "gate-semantics":
			semantics = true
		case "cow-aliasing":
			aliasing = true
		}
	}
	if !semantics {
		t.Error("final report is missing the gate-semantics checker")
	}
	if !aliasing {
		t.Error("final report is missing the cow-aliasing checker")
	}
	if final.Procs == 0 {
		t.Error("final report covers no processes")
	}
	var runs int
	if err := json.Unmarshal(obj["invariant_runs"], &runs); err != nil || runs == 0 {
		t.Errorf("invariant_runs = %d (err %v), want > 0", runs, err)
	}
	var findings int
	if err := json.Unmarshal(obj["findings"], &findings); err != nil || findings != 0 {
		t.Errorf("findings = %d (err %v) on the clean probe", findings, err)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// -word prints one verdict line per enforcing policy: LDTRSW is refused only
// under pan, ERETAA under all three, and POR_EL1 is admitted only under
// overlay.
func TestClassifyWordPolicies(t *testing.T) {
	for _, tc := range []struct {
		word uint32
		want string
	}{
		{0xb8800822, "0xb8800822  .inst 0xb8800822\n" +
			"  policy ttbr  allowed\n" +
			"  policy pan   SENSITIVE: unprivileged load/store bypasses PAN\n" +
			"  policy overlay  allowed\n"},
		{0xd69f0bff, "0xd69f0bff  .inst 0xd69f0bff\n" +
			"  policy ttbr  SENSITIVE: eret\n" +
			"  policy pan   SENSITIVE: eret\n" +
			"  policy overlay  SENSITIVE: eret\n"},
		{0xd518a280, "0xd518a280  msr por_el1, x0\n" +
			"  policy ttbr  SENSITIVE: privileged system-register access\n" +
			"  policy pan   SENSITIVE: privileged system-register access\n" +
			"  policy overlay  allowed\n"},
	} {
		if got := classifyWord(tc.word); got != tc.want {
			t.Errorf("classifyWord(%#08x) =\n%s\nwant\n%s", tc.word, got, tc.want)
		}
	}
}
