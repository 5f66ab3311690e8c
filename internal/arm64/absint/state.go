package absint

// cell is one tracked storage location: an abstract value plus a value
// identity. Two cells with the same non-zero id are copies of the same
// run-time value, so an equality test refining one refines every alias —
// that is what lets CMP x19, x20 / B.NE prove something about TTBR0_EL1
// when x19 was read from it with MRS.
type cell struct {
	v  AbsVal
	id uint32
}

// Bit is the three-point-plus-top lattice for the tracked PSTATE bit, PAN:
// still exactly as it was at analysis entry, proven 0, proven 1, or
// unknown.
type Bit uint8

const (
	// BitEntry means the bit has not been modified on this path.
	BitEntry Bit = iota
	// Bit0 and Bit1 are proven values written on this path.
	Bit0
	Bit1
	// BitTop is an unmodelled update.
	BitTop
)

func (b Bit) String() string {
	switch b {
	case BitEntry:
		return "entry"
	case Bit0:
		return "0"
	case Bit1:
		return "1"
	}
	return "⊤"
}

// cmpFact is the last flag-setting subtraction (CMP is SUBS with XZR
// destination): on a B.EQ edge the two operands are proven equal, on a B.NE
// edge provably-equal operands make the edge infeasible. Flag-setting ops
// the analysis cannot express as an operand equality (ANDS) clear it.
type cmpFact struct {
	valid bool
	a, b  cell
}

// State is one path's abstract machine state. Paths never join: forking at
// a conditional branch clones the state (trace partitioning), which keeps
// every fact path-sensitive — exactly what gate verification needs, since
// the violating paths are the rarely-taken ones.
type State struct {
	regs [31]cell // X0..X30
	sp   cell     // register 31 as a load/store base

	ttbr0        cell
	ttbr0Written bool
	ttbr0VA      uint64

	pan   Bit
	panVA uint64

	cmp cmpFact
	nid *uint32
}

// NewEntryState returns the state at an untrusted entry: every register
// (and the banked SP, and the current TTBR0) holds a distinct tainted ⊤ —
// the caller chose them — while PAN is at its entry value. nid is the
// shared value-identity counter for one exploration.
func NewEntryState(nid *uint32) *State {
	s := &State{nid: nid}
	for i := range s.regs {
		s.regs[i] = cell{v: TopVal(true), id: s.fresh()}
	}
	s.sp = cell{v: TopVal(true), id: s.fresh()}
	// The TTBR0 live at gate entry is whatever table the caller was
	// running on. Writing it back inside the gate does not make it the
	// target domain's table, so it starts tainted like the registers.
	s.ttbr0 = cell{v: TopVal(true), id: s.fresh()}
	return s
}

func (s *State) fresh() uint32 {
	*s.nid++
	return *s.nid
}

// clone copies the state for a path fork; the identity counter is shared.
func (s *State) clone() *State {
	c := *s
	return &c
}

// getCell reads register r with XZR semantics: register 31 reads as an
// untainted constant zero.
func (s *State) getCell(r uint8) cell {
	if r == 31 {
		return cell{v: ConstVal(0, false)}
	}
	return s.regs[r]
}

// baseCell reads register r as a load/store base, where 31 selects SP.
func (s *State) baseCell(r uint8) cell {
	if r == 31 {
		return s.sp
	}
	return s.regs[r]
}

// setReg writes a freshly computed value to r (discarded for XZR).
func (s *State) setReg(r uint8, v AbsVal) {
	if r == 31 {
		return
	}
	s.regs[r] = cell{v: v, id: s.fresh()}
}

// setCell installs a copy of an existing cell — value and identity — into r.
func (s *State) setCell(r uint8, c cell) {
	if r == 31 {
		return
	}
	s.regs[r] = c
}

// forEachAlias applies fn to every tracked cell carrying identity id.
func (s *State) forEachAlias(id uint32, fn func(*cell)) {
	if id == 0 {
		return
	}
	for i := range s.regs {
		if s.regs[i].id == id {
			fn(&s.regs[i])
		}
	}
	if s.sp.id == id {
		fn(&s.sp)
	}
	if s.ttbr0.id == id {
		fn(&s.ttbr0)
	}
}

// refineEqual narrows the state with the fact "a == b" (an EQ edge or a
// taken CBZ). It returns false when the fact is contradictory — the edge is
// infeasible and must be pruned. Every alias of either identity is narrowed
// to the meet, and the identities are unified so later comparisons see the
// aliasing.
func (s *State) refineEqual(a, b cell) bool {
	m, ok := Meet(a.v, b.v)
	if !ok {
		return false
	}
	s.forEachAlias(a.id, func(c *cell) { c.v = m })
	s.forEachAlias(b.id, func(c *cell) { c.v = m })
	if a.id != 0 && b.id != 0 && a.id != b.id {
		s.forEachAlias(b.id, func(c *cell) { c.id = a.id })
	}
	return true
}

// feasibleNotEqual reports whether "a != b" can hold: identical identities
// or identical constants make the NE edge infeasible.
func feasibleNotEqual(a, b cell) bool {
	if a.id != 0 && a.id == b.id {
		return false
	}
	av, aok := a.v.IsConst()
	bv, bok := b.v.IsConst()
	return !(aok && bok && av == bv)
}

// TTBR0 exposes the tracked translation-base state to the checker: the
// abstract value, whether any MSR TTBR0_EL1 executed on this path, and the
// VA of the (last) write.
func (s *State) TTBR0() (v AbsVal, written bool, va uint64) {
	return s.ttbr0.v, s.ttbr0Written, s.ttbr0VA
}

// PAN exposes the PAN lattice point and the VA of the write that moved it
// off BitEntry.
func (s *State) PAN() (Bit, uint64) { return s.pan, s.panVA }

// Reg exposes a register's abstract value (Const 0 for XZR).
func (s *State) Reg(r uint8) AbsVal { return s.getCell(r).v }
