// Package absint is an abstract interpreter over decoded A64 instructions.
//
// The value domain is a flat constant/interval lattice with a taint bit per
// register-sized value: Const (one known 64-bit pattern), Range (a closed
// unsigned interval) and Top (any pattern). Taint marks values that are
// (transitively) derived from state an untrusted caller controls — the
// registers live at a call-gate entry, or memory the verifier cannot prove
// immutable. Untainted values originate from immediates in the verified code
// itself or from read-only memory resolved through a MemOracle.
//
// On top of the value domain, State (state.go) tracks a small PSTATE lattice
// (PAN, the exception level the analysis was entered at) and
// per-value identities that let equality tests (CMP + B.cond, CBZ/CBNZ)
// refine every alias of a compared value at once. interp.go explores all
// paths through a small code region (trace partitioning: each path keeps its
// own State, there is no join point), and blockproof.go derives per-decoded-
// block proofs for the execution engine's block cache.
//
// Soundness convention: every transfer function may lose precision but must
// never claim more than the concrete semantics in internal/cpu/handlers.go
// allow. When a form's result is not modelled precisely the result is Top
// with the operands' taint; when an analysis budget is exhausted the caller
// must treat the code as unproven (fail closed).
package absint

import "fmt"

// Kind classifies an abstract value.
type Kind uint8

const (
	// Top is the unknown value: any 64-bit pattern.
	Top Kind = iota
	// Const is a single known 64-bit value (Lo == Hi).
	Const
	// Range is a closed unsigned interval [Lo, Hi].
	Range
)

// AbsVal is one register-sized abstract value.
type AbsVal struct {
	K      Kind
	Lo, Hi uint64
	Taint  bool
}

// TopVal returns the unknown value with the given taint.
func TopVal(taint bool) AbsVal { return AbsVal{K: Top, Taint: taint} }

// ConstVal returns the singleton value v.
func ConstVal(v uint64, taint bool) AbsVal {
	return AbsVal{K: Const, Lo: v, Hi: v, Taint: taint}
}

// RangeVal returns the interval [lo, hi]; lo == hi degenerates to Const and
// an inverted interval (caller bug) widens to Top rather than claim ⊥.
func RangeVal(lo, hi uint64, taint bool) AbsVal {
	switch {
	case lo == hi:
		return ConstVal(lo, taint)
	case lo > hi:
		return TopVal(taint)
	}
	return AbsVal{K: Range, Lo: lo, Hi: hi, Taint: taint}
}

// IsConst returns the concrete value when the abstraction is a singleton.
func (v AbsVal) IsConst() (uint64, bool) {
	return v.Lo, v.K == Const
}

// Trusted reports whether v is a proven, untainted constant — the property
// the gate checker demands of an installed TTBR0 and of a gate exit target.
func (v AbsVal) Trusted() bool { return v.K == Const && !v.Taint }

func (v AbsVal) String() string {
	t := ""
	if v.Taint {
		t = "!"
	}
	switch v.K {
	case Const:
		return fmt.Sprintf("%s%#x", t, v.Lo)
	case Range:
		return fmt.Sprintf("%s[%#x,%#x]", t, v.Lo, v.Hi)
	default:
		return t + "⊤"
	}
}

// Join is the least upper bound: the result covers every pattern either
// operand covers, and is tainted if either operand is.
func Join(a, b AbsVal) AbsVal {
	taint := a.Taint || b.Taint
	if a.K == Top || b.K == Top {
		return TopVal(taint)
	}
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return RangeVal(lo, hi, taint)
}

// Meet is the greatest lower bound, used when two values are proven equal
// (the EQ edge of a compare). ok=false means the intersection is empty: the
// path is infeasible. A value proven equal to an untainted value is itself
// untainted — this is how the gate's check phase launders the in-register
// TTBR0 back to trusted once it compares equal to the TTBRTab slot.
func Meet(a, b AbsVal) (m AbsVal, ok bool) {
	taint := a.Taint && b.Taint
	if a.K == Top {
		m = b
		m.Taint = taint
		return m, true
	}
	if b.K == Top {
		m = a
		m.Taint = taint
		return m, true
	}
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	if lo > hi {
		return AbsVal{}, false
	}
	return RangeVal(lo, hi, taint), true
}

// addVal abstracts 64-bit addition. Constants fold precisely (wraparound is
// architecturally defined); interval addition is kept only when neither
// bound wraps, any potential wraparound widening to Top.
func addVal(a, b AbsVal) AbsVal {
	taint := a.Taint || b.Taint
	if a.K == Const && b.K == Const {
		return ConstVal(a.Lo+b.Lo, taint)
	}
	if a.K == Top || b.K == Top {
		return TopVal(taint)
	}
	lo := a.Lo + b.Lo
	hi := a.Hi + b.Hi
	if lo < a.Lo || hi < a.Hi {
		return TopVal(taint)
	}
	return RangeVal(lo, hi, taint)
}

// subVal abstracts 64-bit subtraction; constants fold precisely, intervals
// widen on potential wraparound.
func subVal(a, b AbsVal) AbsVal {
	taint := a.Taint || b.Taint
	if a.K == Const && b.K == Const {
		return ConstVal(a.Lo-b.Lo, taint)
	}
	if a.K == Top || b.K == Top {
		return TopVal(taint)
	}
	if a.Lo < b.Hi {
		return TopVal(taint)
	}
	return RangeVal(a.Lo-b.Hi, a.Hi-b.Lo, taint)
}

// binConst folds a binary operation precisely on two constants and widens to
// Top otherwise.
func binConst(a, b AbsVal, f func(x, y uint64) uint64) AbsVal {
	if av, ok := a.IsConst(); ok {
		if bv, ok := b.IsConst(); ok {
			return ConstVal(f(av, bv), a.Taint || b.Taint)
		}
	}
	return TopVal(a.Taint || b.Taint)
}

// andVal abstracts bitwise AND. A constant mask bounds the result above
// regardless of the other operand (x & m <= m unsigned).
func andVal(a, b AbsVal) AbsVal {
	if av, ok := a.IsConst(); ok {
		if bv, ok := b.IsConst(); ok {
			return ConstVal(av&bv, a.Taint || b.Taint)
		}
		return RangeVal(0, av, a.Taint || b.Taint)
	}
	if bv, ok := b.IsConst(); ok {
		return RangeVal(0, bv, a.Taint || b.Taint)
	}
	return TopVal(a.Taint || b.Taint)
}

// lowBits abstracts keeping the low width bits of a (0 < width <= 64). A
// value whose bounds already fit in them passes through unchanged.
func lowBits(a AbsVal, width uint64) AbsVal {
	mask := uint64(1)<<width - 1 // all ones when width is 64
	if a.K == Top && width < 64 || a.K != Top && a.Hi > mask {
		return andVal(a, ConstVal(mask, false))
	}
	return a
}

// shlVal abstracts a left shift by a known amount; sh must be < 64.
// Non-constant operands widen: a left shift discards high bits, so interval
// bounds survive only when no bit is shifted out.
func shlVal(a AbsVal, sh uint8) AbsVal {
	if sh == 0 {
		return a
	}
	if a.K == Top {
		return TopVal(a.Taint)
	}
	lo := a.Lo << sh
	hi := a.Hi << sh
	if lo>>sh != a.Lo || hi>>sh != a.Hi {
		return TopVal(a.Taint)
	}
	return RangeVal(lo, hi, a.Taint)
}

// shrVal abstracts a logical right shift by a known amount; monotonic, so
// interval bounds always survive. Even Top gains an upper bound.
func shrVal(a AbsVal, sh uint8) AbsVal {
	if sh == 0 {
		return a
	}
	if sh >= 64 {
		return ConstVal(0, a.Taint)
	}
	if a.K == Top {
		return RangeVal(0, ^uint64(0)>>sh, a.Taint)
	}
	return RangeVal(a.Lo>>sh, a.Hi>>sh, a.Taint)
}
