package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"strings"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/mem"
)

// Digest summarizes the architecturally observable outcome of a run: the
// general registers, PC and every system register, PSTATE, every byte of
// touched physical memory, the emulated cycle/instruction counters, the
// guest-visible TLB statistics, and how the process ended. Host-side cache
// counters (decode hits, micro-TLB hits) are deliberately excluded — they
// are observability, not architecture, and legitimately move under
// host-invisible perturbations. PSTATE is kept out of the register hash so
// a comparator can attribute a single-bit PSTATE difference (a forced PAN
// flip's direct footprint) to the injection that wrote it. For the same
// reason the PAN bit of the saved-PSTATE copies, SPSR_EL1 and SPSR_EL2, is
// masked out of the hash: a trap after a forced PAN set saves the injected
// bit there, and hashing it would turn the attributable footprint into a
// register divergence (DESIGN §9).
type Digest struct {
	Regs       string `json:"regs"` // sha256 over X0..X30, PC and digestSysRegs, SPSR PAN bits masked
	PState     uint64 `json:"pstate"`
	Mem        string `json:"mem"` // sha256 over each materialized frame's PA, line mask and non-zero lines
	CycleTotal int64  `json:"cycles"`
	Insns      int64  `json:"insns"`
	Measured   int64  `json:"measured"` // marker-delimited cycles (0 if unused)
	TLBHits    uint64 `json:"tlb_hits"`
	TLBMiss    uint64 `json:"tlb_misses"`
	Killed     bool   `json:"killed,omitempty"`
	KillMsg    string `json:"kill_msg,omitempty"`
}

// digestSysRegs is the order Regs hashes the system registers in: SP_EL0,
// SP_EL1 and SP_EL2, then every other register in SysReg order.
var digestSysRegs = func() []arm64.SysReg {
	rs := []arm64.SysReg{arm64.SPEL0, arm64.SPEL1, arm64.SPEL2}
	for r := arm64.SysReg(1); int(r) < arm64.NumSysRegs; r++ {
		if r != arm64.SPEL0 && r != arm64.SPEL1 && r != arm64.SPEL2 {
			rs = append(rs, r)
		}
	}
	return rs
}()

// CaptureDigest reads the digest off a vCPU and its physical memory: Regs
// hashes X0..X30, PC and the digestSysRegs in that order, with
// arm64.PStatePAN cleared in SPSR_EL1 and SPSR_EL2, and Mem is memDigest's
// line-mask encoding of every materialized frame. Observation only: frames
// are visited, never materialized, and nothing is charged, so digesting
// between run slices cannot perturb the run. The caller fills Measured and
// Killed/KillMsg, which live outside the CPU.
func CaptureDigest(c *cpu.VCPU, pm *mem.PhysMem) Digest {
	var d Digest
	var buf [8 * (32 + arm64.NumSysRegs - 1)]byte // X0..X30, PC, the system registers
	b := buf[:0]
	for i := 0; i < 31; i++ {
		b = binary.LittleEndian.AppendUint64(b, c.R(uint8(i)))
	}
	b = binary.LittleEndian.AppendUint64(b, c.PC)
	for _, r := range digestSysRegs {
		v := c.Sys(r)
		if r == arm64.SPSREL1 || r == arm64.SPSREL2 {
			v &^= arm64.PStatePAN
		}
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	sum := sha256.Sum256(b)
	d.Regs = hex.EncodeToString(sum[:])
	d.PState = c.PState
	d.Mem = memDigest(pm)
	d.CycleTotal = c.Cycles
	d.Insns = c.Insns
	d.TLBHits = c.Stats.TLBHits
	d.TLBMiss = c.Stats.TLBMisses
	return d
}

// lineSize is the granule of the memory encoding; a frame has exactly 64
// lines, so one uint64 masks them all.
const lineSize = mem.PageSize / 64

// memDigest hashes every materialized frame, in VisitFrames order, as its
// PA, a mask whose bit i is set when line i (bytes [64i, 64i+64)) holds a
// non-zero byte, and then the set lines in ascending order. Each record is
// self-delimiting (the mask's popcount gives its length) and the unset
// lines are zero, so every frame's PA and bytes can be read back from the
// stream, and an all-zero frame (mask 0) still differs from an absent one.
// Most frames are page tables that are almost all zero lines, so this
// hashes a few percent of the bytes a full-frame hash would.
func memDigest(pm *mem.PhysMem) string {
	h := sha256.New()
	var hdr [16]byte
	pm.VisitFrames(func(pa mem.PA, frame *[mem.PageSize]byte) {
		mask := lineMask(frame)
		binary.LittleEndian.PutUint64(hdr[:8], uint64(pa))
		binary.LittleEndian.PutUint64(hdr[8:], mask)
		h.Write(hdr[:])
		for mask != 0 {
			// One Write per run of consecutive set lines.
			lo := bits.TrailingZeros64(mask)
			n := bits.TrailingZeros64(^(mask >> lo))
			h.Write(frame[lo*lineSize : (lo+n)*lineSize])
			mask &^= (1<<n - 1) << lo
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// lineMask returns the frame's non-zero-line mask.
func lineMask(frame *[mem.PageSize]byte) uint64 {
	var mask uint64
	for i := 0; i < mem.PageSize/lineSize; i++ {
		l := (*[lineSize]byte)(frame[i*lineSize:])
		if binary.LittleEndian.Uint64(l[0:])|binary.LittleEndian.Uint64(l[8:])|
			binary.LittleEndian.Uint64(l[16:])|binary.LittleEndian.Uint64(l[24:])|
			binary.LittleEndian.Uint64(l[32:])|binary.LittleEndian.Uint64(l[40:])|
			binary.LittleEndian.Uint64(l[48:])|binary.LittleEndian.Uint64(l[56:]) != 0 {
			mask |= 1 << i
		}
	}
	return mask
}

// StateEqual reports whether two digests agree on architectural state:
// registers, PSTATE, memory, and how the process ended. Cycle totals,
// the measured interval and TLB statistics are excluded — this is the
// convergence criterion for perturbations that are architecturally visible
// only as timing (forced TLB eviction, spurious TLBI).
func (d Digest) StateEqual(o Digest) bool {
	return d.Regs == o.Regs && d.PState == o.PState && d.Mem == o.Mem &&
		d.Killed == o.Killed && d.KillMsg == o.KillMsg
}

// Equal reports bit-identity: state plus cycle accounting, the measured
// interval and TLB statistics — the criterion for host-invisible
// perturbations (micro-TLB flush, block-cache eviction, decode-cache off).
func (d Digest) Equal(o Digest) bool {
	return d.StateEqual(o) && d.CycleTotal == o.CycleTotal && d.Insns == o.Insns &&
		d.Measured == o.Measured && d.TLBHits == o.TLBHits && d.TLBMiss == o.TLBMiss
}

// PANFootprintOnly reports whether o differs from d exactly by the
// PSTATE.PAN bit — the direct, attributable footprint of a forced PAN set
// that the guest never rewrote. Everything else must match StateEqual.
func (d Digest) PANFootprintOnly(o Digest) bool {
	return d.Regs == o.Regs && d.Mem == o.Mem &&
		d.Killed == o.Killed && d.KillMsg == o.KillMsg &&
		d.PState != o.PState && d.PState^o.PState == arm64.PStatePAN
}

// Delta describes how o differs from the baseline d, for reports.
func (d Digest) Delta(o Digest) string {
	switch {
	case d.Equal(o):
		return "identical"
	case d.StateEqual(o):
		return fmt.Sprintf("state converged; cycles %+d, measured %+d, tlb hits %+d misses %+d",
			o.CycleTotal-d.CycleTotal, o.Measured-d.Measured,
			int64(o.TLBHits)-int64(d.TLBHits), int64(o.TLBMiss)-int64(d.TLBMiss))
	case d.PANFootprintOnly(o):
		return "state converged up to the injected PSTATE.PAN bit"
	default:
		var why []string
		if d.Regs != o.Regs {
			why = append(why, "registers")
		}
		if d.PState != o.PState {
			why = append(why, fmt.Sprintf("pstate %#x vs %#x", d.PState, o.PState))
		}
		if d.Mem != o.Mem {
			why = append(why, "memory")
		}
		if d.Killed != o.Killed || d.KillMsg != o.KillMsg {
			why = append(why, fmt.Sprintf("exit (killed=%v %q vs killed=%v %q)", d.Killed, d.KillMsg, o.Killed, o.KillMsg))
		}
		return "DIVERGED: " + strings.Join(why, ", ")
	}
}
