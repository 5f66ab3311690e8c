package core

import (
	"fmt"

	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Backend is one isolation substrate behind the LightZone module API. The
// module owns everything substrate-invariant — entering the per-process VM,
// the TTBR1 trap stub, syscall forwarding, demand paging, the sanitizer and
// W-xor-X machinery, observer chokepoints — while the backend owns how
// domains are named, how memory is attached to them (lz_prot), how the
// running context switches between them, and how a cross-domain access is
// classified when it faults:
//
//   - lightzone: the paper's TTBR0-switch substrate — per-domain stage-1
//     tables, TTBR1-mapped secure call gates, GateTab/TTBRTab validation.
//   - overlay: a Complets/FEAT_S1POE-style permission-overlay substrate —
//     one table, per-domain PTE keys, domain entry is an untrapped POR_EL1
//     write, cross-domain access faults at the overlay check.
//   - granule: a NanoZone/CCA-style delegated-granule substrate — zone
//     memory is delegated and assigned granule by granule, domain entry is
//     a realm-style trap into the module, cross-domain access is classified
//     against granule ownership before any stage-1 repair is considered.
//
// Backends must preserve the module's observer-event vocabulary (lz_alloc,
// lz_prot, lz_free, ...) so chokepoint verification and trace tooling work
// unchanged across substrates.
type Backend interface {
	// Name is the backend's key ("lightzone", "overlay", "granule").
	Name() string
	// Install sets up the backend's per-process structures at lz_enter
	// time (after the trap stub, before the base table is populated).
	Install(lp *LZProc) error
	// Alloc implements lz_alloc: create a new domain and return its id.
	Alloc(lp *LZProc) (int, error)
	// Free implements lz_free: destroy a domain.
	Free(lp *LZProc, domain int) error
	// Prot implements lz_prot: attach a region to a domain.
	Prot(lp *LZProc, addr mem.VA, length uint64, domain, perm int) error
	// MapGatePgt implements lz_map_gate_pgt where the backend has call
	// gates; gateless backends return an error.
	MapGatePgt(lp *LZProc, pgt, gate int) error
	// HandleFault services a forwarded stage-1 fault, classifying it
	// under the backend's protection model before (or instead of) the
	// substrate-invariant demand-paging path.
	HandleFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error
	// HandleHVC gets first refusal on hypervisor-call immediates the
	// shared dispatcher does not recognize (backend-private entry paths).
	// It returns handled=false to fall through to the violation path.
	HandleHVC(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) (bool, error)
}

// Backends returns the backend names in presentation order: the paper's
// substrate first, then the two alternate models.
func Backends() []string { return []string{"lightzone", "overlay", "granule"} }

// NewBackend constructs a backend by name.
func NewBackend(name string) (Backend, error) {
	switch name {
	case "lightzone":
		return lightzoneBackend{}, nil
	case "overlay":
		return overlayBackend{}, nil
	case "granule":
		return granuleBackend{}, nil
	}
	return nil, fmt.Errorf("unknown isolation backend %q (have %v)", name, Backends())
}

// SetBackend selects the isolation substrate for processes that enter
// after the call. Live processes keep the backend they entered with.
func (lz *LightZone) SetBackend(name string) error {
	b, err := NewBackend(name)
	if err != nil {
		return err
	}
	lz.backend = b
	return nil
}

// BackendName returns the module's selected substrate name.
func (lz *LightZone) BackendName() string { return lz.backend.Name() }

// Backend returns the substrate the process entered with.
func (lp *LZProc) Backend() Backend { return lp.backend }

// BackendName returns the name of the substrate the process entered with.
func (lp *LZProc) BackendName() string { return lp.backend.Name() }
