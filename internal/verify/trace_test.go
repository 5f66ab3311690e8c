package verify

import (
	"fmt"
	"strings"
	"testing"

	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

// TestTraceWordsCheck exercises the stitched-trace coherence helper with
// fabricated traces against a fake address space: live traces must match
// memory word for word, dead traces carry no invariant.
func TestTraceWordsCheck(t *testing.T) {
	// Two-step trace: PCs 0x10000/0x10004 resolving to PAs 0x5000/0x5004.
	trace := func(epochOK bool) cpu.TraceInfo {
		return cpu.TraceInfo{
			EntryPC: 0x10000, EpochOK: epochOK,
			PCs: []uint64{0x10000, 0x10004}, Raw: []uint32{0x1111_1111, 0x2222_2222},
		}
	}
	resolve := func(va uint64) (mem.PA, string) {
		if va>>mem.PageShift != 0x10 {
			return 0, "covers a VA the page table no longer maps"
		}
		return mem.PA(va - 0x10000 + 0x5000), ""
	}
	memory := map[mem.PA]uint32{0x5000: 0x1111_1111, 0x5004: 0x2222_2222}
	readU32 := func(pa mem.PA) (uint32, error) {
		w, ok := memory[pa]
		if !ok {
			return 0, fmt.Errorf("unmapped PA %#x", uint64(pa))
		}
		return w, nil
	}

	if va, detail := traceWordsCheck(trace(true), resolve, readU32); detail != "" {
		t.Errorf("coherent live trace flagged at %#x: %s", va, detail)
	}

	// A word changes behind the trace without an epoch bump: the live trace
	// must be flagged at the exact step PC.
	memory[0x5004] = 0x3333_3333
	va, detail := traceWordsCheck(trace(true), resolve, readU32)
	if !strings.Contains(detail, "differs from memory") {
		t.Errorf("tampered live trace not flagged: %q", detail)
	}
	if va != 0x10004 {
		t.Errorf("finding at %#x, want the mismatching step PC 0x10004", va)
	}

	// The same tampering on a stale trace is no finding: the guard refuses
	// it, so it can never replay the stale words.
	if va, detail := traceWordsCheck(trace(false), resolve, readU32); detail != "" {
		t.Errorf("dormant trace flagged at %#x: %s", va, detail)
	}
	memory[0x5004] = 0x2222_2222

	// A live trace whose mapping disappeared is a finding even when no word
	// comparison is possible.
	gone := func(uint64) (mem.PA, string) { return 0, "covers a VA the page table no longer maps" }
	if _, detail := traceWordsCheck(trace(true), gone, readU32); !strings.Contains(detail, "no longer maps") {
		t.Errorf("unmapped live trace not flagged: %q", detail)
	}
	if _, detail := traceWordsCheck(trace(false), gone, readU32); detail != "" {
		t.Errorf("unmapped dead trace flagged: %s", detail)
	}
}
