package absint

import (
	"slices"

	"lightzone/internal/arm64"
	"lightzone/internal/mem"
)

// MemClaim is one data access a proof predicts. Known claims pin the page
// (the address was a compile-time constant — literal pools and ADR-relative
// data); unknown claims still pin the access's order, direction and width,
// which the dynamic oracle can check against real execution.
type MemClaim struct {
	Index int  // instruction index within the proven unit
	Write bool // store vs load
	Known bool // Page is meaningful
	Page  uint64
	Size  int
}

// Proof is the static summary of one unit the pipeline replays as a whole:
// what it can touch and what it must cost. The unit is either one decoded
// straight-line block (ProveBlock) or a stitched trace of blocks along one
// predicted control-flow path (ComposeTrace).
//
// A block proof is derived purely from the decoded instructions (state-free:
// the entry state is all-⊤), so it stays valid exactly as long as the decoded
// block itself — the block cache keys both on the same code epoch. A trace
// proof folds its members' proofs, so it stays valid as long as they do.
//
// ProveBlock and ComposeTrace are the sole factories (enforced by
// tools/lint): a Proof built anywhere else would be an unproven claim
// wearing a proof's type.
type Proof struct {
	PC    uint64 // entry PC
	Insns int

	// PCs lists the predicted PC of every instruction of a trace, in order.
	// It is nil for a block, whose instructions are contiguous from PC; PCAt
	// answers for both.
	PCs []uint64

	// Claims lists every data access in program order (Ldp/Stp contribute
	// two), MemClaim.Index counting instructions from the entry. The final
	// instruction's own accesses are included; InteriorClaims filters them
	// out for pre-terminator auditing. A trace's interior edges contribute
	// no claims: branch ops carry no dataflow.
	Claims []MemClaim

	// ISBs and DSBs count interior barriers (index < Insns-1); the
	// terminator cannot be a barrier, but the counts are conservative
	// anyway. DSBs counts DSB and DMB together (same charge).
	ISBs int
	DSBs int

	// SysregFree means no instruction writes a system register, PSTATE
	// field, or issues a SYS/SYSL op. Decoded blocks end at any such
	// instruction, so for a block this only excludes a terminator that is
	// one — a SysregFree block is fusable without sysreg replay. PANFree
	// means no instruction moves the PAN bit off its entry value. A trace
	// holds either only when every member does (the conjunction: any
	// member writing state breaks the trace-wide invariant).
	SysregFree bool
	PANFree    bool

	// Branches counts a trace's stitch edges that charge BranchCost when
	// the prediction holds: unconditional B/BL/RET always, conditional
	// edges only when the predicted direction is the taken one. A
	// conditional whose taken target equals its fall-through is
	// conservatively not counted — the minimum-charge bound must never
	// exceed reality. PanToggles counts the MSR PAN, #imm edges fused into
	// a trace (each charges PanToggleCost). Both are 0 for a block.
	Branches   int
	PanToggles int

	// Term is the opcode of the final instruction.
	Term arm64.Op
}

// PCAt returns the PC of the unit's i-th instruction.
func (p *Proof) PCAt(i int) uint64 {
	if p.PCs != nil {
		return p.PCs[i]
	}
	return p.PC + uint64(i)*arm64.InsnBytes
}

// ProveBlock derives the proof for one decoded block. The walk is
// straight-line by construction: the block cache ends blocks at the first
// terminating instruction, so only Insns[len-1] may branch, and control-flow
// ops carry no dataflow the claims depend on.
func ProveBlock(pc uint64, insns []arm64.Insn) *Proof {
	p := &Proof{PC: pc, Insns: len(insns), SysregFree: true, PANFree: true}
	var nid uint32
	s := NewEntryState(&nid)
	last := len(insns) - 1
	for i, in := range insns {
		p.noteShape(i, last, in)
		if in.Op.Terminates() {
			// Branches, exception generation, sysreg ops, undecodable
			// words: no dataflow claims beyond what noteShape recorded.
			continue
		}
		stepInsn(s, pc+uint64(i)*arm64.InsnBytes, i, in, nil, func(e Effect) {
			switch e.Kind {
			case EffMemRead, EffMemWrite:
				c := MemClaim{Index: i, Write: e.Kind == EffMemWrite, Size: e.Size}
				if a, ok := e.Addr.IsConst(); ok {
					c.Known = true
					c.Page = a >> mem.PageShift
				}
				p.Claims = append(p.Claims, c)
			case EffBarrier:
				if i < last {
					if e.Barrier == arm64.OpISB {
						p.ISBs++
					} else {
						p.DSBs++
					}
				}
			}
		})
	}
	return p
}

// noteShape records the sysreg/PAN classification of one instruction.
func (p *Proof) noteShape(i, last int, in arm64.Insn) {
	if i == last {
		p.Term = in.Op
	}
	switch in.Op {
	case arm64.OpMSRReg, arm64.OpSYS, arm64.OpSYSL:
		p.SysregFree = false
	case arm64.OpMSRImm:
		p.SysregFree = false
		if in.Sys.Op1 == arm64.PStateFieldPANOp1 && in.Sys.Op2 == arm64.PStateFieldPANOp2 {
			p.PANFree = false
		}
	}
}

// TraceEdge describes how control leaves one member block for the next
// during composition: the terminator's opcode and, for conditional forms,
// whether the predicted direction is the taken branch.
type TraceEdge struct {
	Term      arm64.Op
	TakenPred bool // conditional edge predicted taken (target != fall-through)
	FusedPAN  bool // MSRImm PAN edge fused into the trace
}

// ComposeTrace folds the proofs of a stitched trace's member blocks into
// the proof of the trace. proofs[i] is the i-th block in predicted order;
// edges[i] describes the terminator edge from block i to block i+1
// (len(edges) == len(proofs)-1; the final block's terminator is the trace's
// own exit and contributes no edge). Claims are rebased to trace-global
// instruction indices, freedoms intersected and charge-bearing counts
// summed. Returns nil if the inputs are malformed.
func ComposeTrace(entryPC uint64, proofs []*Proof, edges []TraceEdge) *Proof {
	if len(proofs) < 2 || len(edges) != len(proofs)-1 || slices.Contains(proofs, nil) {
		return nil
	}
	tp := &Proof{PC: entryPC, SysregFree: true, PANFree: true, Term: proofs[len(proofs)-1].Term}
	pc := entryPC
	for bi, p := range proofs {
		if bi > 0 {
			// The stitcher supplies each successor's PC through its proof.
			pc = p.PC
		}
		for i := 0; i < p.Insns; i++ {
			tp.PCs = append(tp.PCs, pc+uint64(i)*arm64.InsnBytes)
		}
		for _, cl := range p.Claims {
			cl.Index += tp.Insns
			tp.Claims = append(tp.Claims, cl)
		}
		tp.Insns += p.Insns
		tp.ISBs += p.ISBs
		tp.DSBs += p.DSBs
		tp.SysregFree = tp.SysregFree && p.SysregFree
		tp.PANFree = tp.PANFree && p.PANFree
		if bi == len(edges) {
			break
		}
		switch e := edges[bi]; e.Term {
		case arm64.OpB, arm64.OpBL, arm64.OpRET:
			tp.Branches++
		case arm64.OpBCond, arm64.OpCBZ, arm64.OpCBNZ:
			if e.TakenPred {
				tp.Branches++
			}
		case arm64.OpMSRImm:
			if e.FusedPAN {
				tp.PanToggles++
			}
		}
	}
	return tp
}

// InteriorClaims returns the claims made by instructions before the
// terminator — the accesses that must all have retired by the time the
// terminator dispatches.
func (p *Proof) InteriorClaims() []MemClaim {
	n := 0
	for _, c := range p.Claims {
		if c.Index < p.Insns-1 {
			n++
		}
	}
	return p.Claims[:n]
}

// InteriorAccesses counts the interior claims (each charges one memory
// access in the concrete machine).
func (p *Proof) InteriorAccesses() int {
	return len(p.InteriorClaims())
}

// MinCharge returns the proof's minimum cycle charge for a completed replay
// under the given per-event costs — one formula for both kinds of unit (a
// block's branch and PAN-toggle terms are zero).
func (p *Proof) MinCharge(insnCost, memCost, isbCost, dsbCost, branchCost, panCost int64) int64 {
	return int64(p.Insns)*insnCost +
		int64(p.InteriorAccesses())*memCost +
		int64(p.ISBs)*isbCost +
		int64(p.DSBs)*dsbCost +
		int64(p.Branches)*branchCost +
		int64(p.PanToggles)*panCost
}
