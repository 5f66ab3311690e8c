package arm64

import "fmt"

// EL is an ARMv8 exception level.
type EL uint8

// Exception levels. EL3 (secure monitor) is not modelled; the paper's
// mechanisms live entirely in EL0..EL2.
const (
	EL0 EL = 0 // user mode
	EL1 EL = 1 // kernel mode (guest kernels, LightZone processes)
	EL2 EL = 2 // hypervisor mode (VHE host kernels, Lowvisor)
)

func (e EL) String() string {
	switch e {
	case EL0, EL1, EL2:
		return fmt.Sprintf("EL%d", uint8(e))
	default:
		return fmt.Sprintf("EL?(%d)", uint8(e))
	}
}

// PSTATE condition/status bits. Only the fields the reproduction needs are
// modelled; they use the architectural bit positions of SPSR so that a
// PSTATE snapshot round-trips through SPSR_ELx unchanged.
const (
	PStateSPSel uint64 = 1 << 0  // stack pointer selection (SP_EL0 vs SP_ELx)
	PStateELLo  uint64 = 1 << 2  // exception level, low bit (M[3:2])
	PStateELHi  uint64 = 1 << 3  // exception level, high bit
	PStateF     uint64 = 1 << 6  // FIQ mask
	PStateI     uint64 = 1 << 7  // IRQ mask
	PStateA     uint64 = 1 << 8  // SError mask
	PStateD     uint64 = 1 << 9  // debug mask
	PStatePAN   uint64 = 1 << 22 // Privileged Access Never
	PStateUAO   uint64 = 1 << 23 // User Access Override (modelled, unused)
	PStateV     uint64 = 1 << 28
	PStateC     uint64 = 1 << 29
	PStateZ     uint64 = 1 << 30
	PStateN     uint64 = 1 << 31
)

// PStateELMask extracts the M[3:2] exception-level field.
const PStateELMask uint64 = PStateELLo | PStateELHi

// ELFromPState decodes the exception level stored in a PSTATE/SPSR value.
func ELFromPState(ps uint64) EL {
	return EL((ps & PStateELMask) >> 2)
}

// PStateForEL encodes el into the M[3:2] field, handler stack selected.
func PStateForEL(el EL) uint64 {
	ps := (uint64(el) << 2) & PStateELMask
	if el != EL0 {
		ps |= PStateSPSel
	}
	return ps
}
