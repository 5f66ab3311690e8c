package verify

import (
	"encoding/binary"
	"hash/maphash"
	"sync"

	"lightzone/internal/mem"
)

// Memo caches the results of content-keyed checkers across repeated
// verifications. The expensive analyses — the sanitizer sweep and the exact
// CFG — are pure functions of each process's identity, backend,
// sanitization policy and gate registrations, and of every executable
// mapping and the bytes behind it. The memo hashes exactly those inputs and
// keys each entry by (checker, content hash), so any state it has verified
// before is served again, whichever machine it came from; the stored
// findings are the ones a fresh run computes (same inputs, same pure
// function, deterministic snapshot order). This is the same host-side
// fastpath discipline as the cpu micro-TLBs: elide host work only when the
// result is provably the one the slow path would produce.
//
// One memo serves a whole chaos sweep, or one machine's invariant monitor.
// It is safe for concurrent use; the lock covers only the lookup and the
// store, never a checker run, so two callers missing one key both compute
// the same result and the second store overwrites the first with an equal
// value. The memo clears when it reaches memoCap entries. The zero Memo is
// empty and ready to use.
type Memo struct {
	mu                   sync.Mutex
	entries              map[memoKey][]Finding
	hits, misses, clears int
}

// memoCap bounds a memo's entries. At the cap the map is cleared, the rule
// the gate-semantics cache and the host block and trace caches follow.
const memoCap = 4096

type memoKey struct {
	checker string
	content uint64
}

// memoSeed seeds every memo's content hash; it is set once at start-up.
var memoSeed = maphash.MakeSeed()

// Stats reports the memo's lookups served from an entry (hits), lookups
// that ran the checker (misses), and how often the map was cleared at its
// cap.
func (mo *Memo) Stats() (hits, misses, clears int) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.hits, mo.misses, mo.clears
}

func (mo *Memo) lookup(k memoKey) ([]Finding, bool) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	found, ok := mo.entries[k]
	if ok {
		mo.hits++
	} else {
		mo.misses++
	}
	return found, ok
}

func (mo *Memo) store(k memoKey, found []Finding) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if len(mo.entries) >= memoCap {
		clear(mo.entries)
		mo.clears++
	}
	if mo.entries == nil {
		mo.entries = make(map[memoKey][]Finding)
	}
	mo.entries[k] = found
}

// memoizable names the checkers whose inputs execKey covers completely.
var memoizable = map[string]bool{
	"sanitizer-sweep":  true,
	"cfg-reachability": true,
}

func hashU64(h *maphash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// hashString writes s length-prefixed, so adjacent strings cannot trade
// bytes and still hash alike.
func hashString(h *maphash.Hash, s string) {
	hashU64(h, uint64(len(s)))
	h.WriteString(s)
}

// execKey hashes every snapshot input the memoizable checkers read: per
// process its identity, backend, sanitization policy and gate
// registrations, and per domain every kernel-executable non-TTBR1 mapping —
// descriptor, geometry, real frame and the bytes currently behind it.
// Returns false (no caching) if any executable mapping is unreadable, so
// error findings are always recomputed.
func execKey(s *Snapshot) (uint64, bool) {
	var h maphash.Hash
	h.SetSeed(memoSeed)
	var page [mem.PageSize]byte
	hashU64(&h, uint64(len(s.Procs)))
	for pi := range s.Procs {
		p := &s.Procs[pi]
		hashU64(&h, uint64(p.PID))
		hashString(&h, p.Name)
		hashString(&h, p.Backend)
		hashU64(&h, uint64(p.Policy))
		hashU64(&h, uint64(len(p.Gates)))
		for _, g := range p.Gates {
			hashU64(&h, uint64(g.ID))
			hashU64(&h, g.Entry)
			hashU64(&h, uint64(g.PGTID))
		}
		hashU64(&h, uint64(len(p.Domains)))
		for di := range p.Domains {
			d := &p.Domains[di]
			hashU64(&h, uint64(d.ID))
			for _, m := range d.Maps {
				if !m.Exec() || !m.HasReal || mem.IsTTBR1(m.VA) {
					continue
				}
				hashU64(&h, uint64(m.VA))
				hashU64(&h, m.Desc)
				hashU64(&h, m.Size)
				hashU64(&h, uint64(m.Real))
				for off := uint64(0); off < m.Size; off += mem.PageSize {
					if err := s.M.PM.Read(m.Real+mem.PA(off), page[:]); err != nil {
						return 0, false
					}
					h.Write(page[:])
				}
			}
			hashU64(&h, ^uint64(0)) // domain sentinel
		}
	}
	return h.Sum64(), true
}

// RunMemo executes the checker registry like Run, serving the content-keyed
// checkers from mo when it has verified the same content before. A nil memo
// degenerates to Run.
func RunMemo(s *Snapshot, mo *Memo) Report {
	rep := Report{Procs: len(s.Procs)}
	if s.M != nil && s.M.Prof != nil {
		rep.Machine = s.M.Prof.Name
	}
	content := uint64(0)
	haveKey := false
	if mo != nil {
		content, haveKey = execKey(s)
	}
	for _, c := range CheckersFor(s.BackendName()) {
		var found []Finding
		if haveKey && memoizable[c.Name] {
			k := memoKey{c.Name, content}
			var ok bool
			if found, ok = mo.lookup(k); !ok {
				found = c.Run(s)
				mo.store(k, found)
			}
		} else {
			found = c.Run(s)
		}
		rep.Checkers = append(rep.Checkers, CheckerResult{Name: c.Name, Findings: len(found)})
		rep.Findings = append(rep.Findings, found...)
	}
	return rep
}
