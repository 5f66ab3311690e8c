// Package replay implements LightZone's deterministic record/replay and
// chaos fault-injection engine. Recording captures every nondeterministic
// input at its boundary — workload RNG seeds, iteration budgets, platform
// and cost-model selection, fleet width — into a compact versioned journal
// together with the run's emitted rows; replaying a journal re-executes the
// run under the recorded inputs and proves the output byte-identical. The
// chaos engine perturbs replays at the architecture's chokepoints (TLB
// eviction and pressure, spurious guest TLBI, ASID/PAN flips, block-cache
// cohort eviction, gate/GateTab tamper) and asserts that every injection
// either converges back to the recorded baseline or is flagged by a named
// internal/verify checker — never a silent divergence.
package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// Version is the journal format version. Readers reject other versions
// outright: a journal is a regression pin, and silently reinterpreting an
// old pin is worse than failing loudly.
const Version = 1

// Journal kinds.
const (
	KindBench    = "bench"    // a recorded lzbench run: config + emitted rows
	KindChaos    = "chaos"    // one chaos case: scenario + injection plan
	KindDiffFuzz = "difffuzz" // a differential-fuzz failure: seed + stream
)

// Journal is the on-disk record of one deterministic run. Exactly one of
// the kind-specific sections (Rows for bench, Chaos, Fuzz) is populated.
type Journal struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	// Config captures the boundary inputs of a bench run.
	Config RunConfig `json:"config,omitempty"`
	// Inputs are the keyed nondeterministic draws consumed during
	// recording, sorted by key (see Source).
	Inputs []Input `json:"inputs,omitempty"`

	// Rows are the emitted JSON result lines of a bench run; RowsSHA is
	// their chained digest, so `lzreplay -inspect` can validate a journal
	// without re-running anything.
	Rows    []string `json:"rows,omitempty"`
	RowsSHA string   `json:"rows_sha,omitempty"`

	Chaos *ChaosCase `json:"chaos,omitempty"`
	Fuzz  *FuzzCase  `json:"fuzz,omitempty"`
}

// RunConfig is the boundary configuration of a recorded lzbench run.
// Parallel is informational: replays must produce identical rows at any
// fleet width, so the replayer deliberately does not restore it. Interp
// records that the run used the plain Step interpreter; rows never depend
// on the pipeline, so journals from before it existed, whose
// nofastpath/nodecode/notrace keys decoding now ignores, replay under the
// default pipeline.
type RunConfig struct {
	Suites     []string `json:"suites"`
	Iters      int      `json:"iters"`
	Mem        bool     `json:"mem,omitempty"` // figures also report §9 memory overheads
	Seed       int64    `json:"seed"`
	Parallel   int      `json:"parallel"`
	Interp     bool     `json:"interp,omitempty"`
	Invariants bool     `json:"invariants,omitempty"` // the invariants suite ran (and pentest ran its planted battery)
	Backend    string   `json:"backend,omitempty"`    // isolation-backend matrix scope ("", name, or "all")

	// Serve-harness boundary inputs (set only when the suites include
	// "serve"). The replayer restores them and the keyed inputs cross-check
	// them, the same belt-and-braces the backend selector uses.
	Arrival   string  `json:"arrival,omitempty"`
	RPS       float64 `json:"rps,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	SLOMicros float64 `json:"slo_us,omitempty"`
}

// Input is one keyed nondeterministic draw.
type Input struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// ChaosCase pins one fault-injection case: the scenario it ran against and
// the derived plan, so a failing case replays exactly.
type ChaosCase struct {
	Scenario Scenario `json:"scenario"`
	Plan     Plan     `json:"plan"`
	// Failure describes why the case was journalled (empty for passing pins).
	Failure string `json:"failure,omitempty"`
}

// FuzzCase pins one differential-fuzz instruction stream.
type FuzzCase struct {
	Seed  int64    `json:"seed"`
	Words []uint32 `json:"words"`
	// Failure describes the divergence that was observed.
	Failure string `json:"failure,omitempty"`
}

// RowsDigest computes the chained SHA-256 over a row set.
func RowsDigest(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seal fills RowsSHA from Rows.
func (j *Journal) Seal() { j.RowsSHA = RowsDigest(j.Rows) }

// Validate checks version, kind and internal consistency.
func (j *Journal) Validate() error {
	if j.Version != Version {
		return fmt.Errorf("journal version %d, this build reads %d", j.Version, Version)
	}
	switch j.Kind {
	case KindBench:
		if got := RowsDigest(j.Rows); got != j.RowsSHA {
			return fmt.Errorf("rows digest mismatch: journal says %s, rows hash to %s", j.RowsSHA, got)
		}
	case KindChaos:
		if j.Chaos == nil {
			return fmt.Errorf("chaos journal without chaos section")
		}
	case KindDiffFuzz:
		if j.Fuzz == nil {
			return fmt.Errorf("difffuzz journal without fuzz section")
		}
	default:
		return fmt.Errorf("unknown journal kind %q", j.Kind)
	}
	return nil
}

// Write serializes the journal to path (indented JSON: journals are
// committed as regression pins and reviewed as diffs).
func (j *Journal) Write(path string) error {
	b, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJournal loads and validates a journal.
func ReadJournal(path string) (*Journal, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var j Journal
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := j.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &j, nil
}

// RowDiff is one divergent row position between two row sets.
type RowDiff struct {
	Index int
	A, B  string // empty when one side is exhausted
}

// DiffRows returns the first maxDiffs divergences between two row sets.
func DiffRows(a, b []string, maxDiffs int) []RowDiff {
	var out []RowDiff
	n := max(len(a), len(b))
	for i := 0; i < n && len(out) < maxDiffs; i++ {
		var ra, rb string
		if i < len(a) {
			ra = a[i]
		}
		if i < len(b) {
			rb = b[i]
		}
		if ra != rb {
			out = append(out, RowDiff{Index: i, A: ra, B: rb})
		}
	}
	return out
}
