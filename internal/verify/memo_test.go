package verify

import "testing"

// TestExecKeyCoversBackend: cfg-reachability admits the granule realm-enter
// HVC only under the granule backend, so two processes that differ only in
// their backend must not share a memoized verdict.
func TestExecKeyCoversBackend(t *testing.T) {
	snap := func(backend string) *Snapshot {
		return &Snapshot{Procs: []ProcSnap{{PID: 1, Name: "app", Backend: backend}}}
	}
	lz, ok1 := execKey(snap("lightzone"))
	gr, ok2 := execKey(snap("granule"))
	if !ok1 || !ok2 {
		t.Fatal("a snapshot without executable mappings must be keyable")
	}
	if lz == gr {
		t.Errorf("lightzone and granule snapshots share content key %#x", lz)
	}
}

// TestMemoClearsAtCap pushes the memo one entry past its bound: the map
// never holds more than memoCap entries, the overflowing store clears it
// once, and an entry stored after the clear is served.
func TestMemoClearsAtCap(t *testing.T) {
	var mo Memo
	for i := 0; i <= memoCap; i++ {
		mo.store(memoKey{"sanitizer-sweep", uint64(i)}, nil)
		if n := len(mo.entries); n > memoCap {
			t.Fatalf("memo holds %d entries after %d stores, cap %d", n, i+1, memoCap)
		}
	}
	if _, _, clears := mo.Stats(); clears != 1 {
		t.Fatalf("%d stores cleared the memo %d times, want 1", memoCap+1, clears)
	}
	want := []Finding{{Checker: "cfg-reachability", Detail: "after the clear"}}
	k := memoKey{"cfg-reachability", 1}
	mo.store(k, want)
	got, ok := mo.lookup(k)
	if !ok || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("lookup after the clear = %v, %v; want %v, true", got, ok, want)
	}
	if hits, misses, clears := mo.Stats(); hits != 1 || misses != 0 || clears != 1 {
		t.Errorf("Stats() = %d hits, %d misses, %d clears; want 1, 0, 1", hits, misses, clears)
	}
}
