package core

import (
	"fmt"
	"sort"

	"lightzone/internal/arm64"
	"lightzone/internal/cpu"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/trace"
)

// overlayState is the overlay backend's per-process bookkeeping. It is
// backend-private: tools/lint confines every access to this file.
type overlayState struct {
	granted  map[int]bool // allocated domain keys
	nextKey  int
	freeKeys []int          // revoked keys, recycled LIFO (see Alloc)
	pageKey  map[mem.VA]int // protected page base -> key tagged in its PTE
}

// overlayBackend is a Complets/FEAT_S1POE-style substrate: every domain is
// a permission-overlay key, protected pages stay in the single base page
// table with the key tagged into the descriptor's upper attribute byte, and
// domain entry is one untrapped MSR to POR_EL1 — no translation-table
// switch, no gate, no TLB impact (keyed pages are global; the overlay check
// re-validates the active key on every access, including TLB hits).
//
// Cost model versus lightzone: lz_alloc is O(1) bookkeeping (no table
// copy), the domain switch is a single system-register write (cheapest of
// the three backends), and lz_prot retags one PTE in one table. The price
// is expressiveness: a page has exactly one key (no per-domain permission
// overlays), domains are data-only (PermExec/PermUser are rejected), and
// the key field caps the domain count at mem.OverlayKeyMax.
type overlayBackend struct{}

func (overlayBackend) Name() string { return "overlay" }

func (overlayBackend) Install(lp *LZProc) error {
	lp.okeys = &overlayState{
		granted: make(map[int]bool),
		nextKey: 1,
		pageKey: make(map[mem.VA]int),
	}
	return nil
}

// Alloc implements lz_alloc as overlay-key allocation: no page-table copy,
// which is the backend's defining cost advantage over per-domain tables.
// Revoked keys are recycled LIFO — Free's page withdrawal and
// unmapEverywhere flush guarantee a recycled key reaches its next holder
// with no page still tagged to it — so churn never exhausts the key byte.
func (overlayBackend) Alloc(lp *LZProc) (int, error) {
	st := lp.okeys
	var key int
	if n := len(st.freeKeys); n > 0 {
		key = st.freeKeys[n-1]
		st.freeKeys = st.freeKeys[:n-1]
	} else {
		if st.nextKey > mem.OverlayKeyMax {
			return -1, fmt.Errorf("lz_alloc: out of overlay keys (max %d)", mem.OverlayKeyMax)
		}
		key = st.nextKey
		st.nextKey++
	}
	st.granted[key] = true
	lp.kern.CPU.Charge(lp.kern.Prof.HandlerDispatchCost)
	lp.lz.observe("lz_alloc", lp)
	return key, nil
}

// Free implements lz_free: revoke a key and withdraw its pages. The active
// key (POR_EL1's low byte) cannot be freed, mirroring the lightzone rule
// that the installed page table cannot be freed.
func (overlayBackend) Free(lp *LZProc, key int) error {
	st := lp.okeys
	if key == 0 || !st.granted[key] {
		return fmt.Errorf("lz_free: bad overlay key %d", key)
	}
	if int(lp.kern.CPU.Sys(arm64.POREL1)&mem.OverlayKeyMax) == key {
		return fmt.Errorf("lz_free: overlay key %d is active", key)
	}
	for base, k := range st.pageKey {
		if k != key {
			continue
		}
		lp.unmapEverywhere(base)
		delete(st.pageKey, base)
		delete(lp.protected, base)
		delete(lp.exec, base)
	}
	delete(st.granted, key)
	st.freeKeys = append(st.freeKeys, key)
	lp.lz.observe("lz_free", lp)
	return nil
}

// OverlayKeyHighWater returns the number of distinct overlay keys ever
// handed out (0 for other backends). With free-list recycling this tracks
// the peak live count, not the cumulative alloc count.
func (lp *LZProc) OverlayKeyHighWater() int {
	if lp.okeys == nil {
		return 0
	}
	return lp.okeys.nextKey - 1
}

// Prot implements lz_prot as an in-place PTE retag: the page stays in the
// base table as a global mapping and only the key byte (plus the RO bit)
// changes — one table, one descriptor, no per-domain copies.
func (overlayBackend) Prot(lp *LZProc, addr mem.VA, length uint64, key, perm int) error {
	st := lp.okeys
	if uint64(addr)&mem.PageMask != 0 {
		return fmt.Errorf("lz_prot: unaligned address %v", addr)
	}
	if length == 0 || mem.IsTTBR1(addr) {
		return fmt.Errorf("lz_prot: bad region")
	}
	if key == 0 || !st.granted[key] {
		return fmt.Errorf("lz_prot: no overlay key %d", key)
	}
	if perm&(PermUser|PermExec) != 0 {
		// A page has exactly one key, so per-domain permission overlays
		// (the JIT W/X trick) and PAN domains don't exist here; overlay
		// domains hold data only.
		return fmt.Errorf("lz_prot: overlay domains are data-only (PermUser/PermExec rejected)")
	}
	end := addr + mem.VA(mem.PageAlignUp(length))
	for va := addr; va < end; {
		pa, kdesc, size, err := lp.kernelFrame(va)
		if err != nil {
			return err
		}
		base := va
		if size == mem.HugePageSize {
			base = mem.VA(uint64(va) &^ uint64(mem.HugePageMask))
		}
		if prev, tagged := st.pageKey[base]; tagged && prev != key {
			return fmt.Errorf("lz_prot: page %v already keyed to domain %d", base, prev)
		}
		attrs := mem.AttrUXN | mem.AttrPXN | mem.AttrSWLZProt | mem.OverlayKeyAttr(key)
		if perm&PermWrite == 0 || kdesc&mem.AttrAPRO != 0 {
			attrs |= mem.AttrAPRO
		}
		lp.unmapEverywhere(base)
		lp.traceCodeInval(base, "lz_prot overlay retag")
		if err := lp.mapIntoPGT(lp.pgts[0], base, pa, size, attrs); err != nil {
			return err
		}
		st.pageKey[base] = key
		lp.protected[base] = &protInfo{pgts: map[int]int{0: perm}, perm: perm}
		lp.kern.CPU.Charge(2 * lp.kern.Prof.MemAccessCost) // single-PTE retag
		va = base + mem.VA(size)
	}
	lp.lz.observe("lz_prot", lp)
	return nil
}

func (overlayBackend) MapGatePgt(lp *LZProc, pgt, gate int) error {
	return fmt.Errorf("lz_map_gate_pgt: the overlay backend has no call gates")
}

// HandleFault classifies overlay-key check failures; everything else (W
// xor X, sanitize, demand paging) is substrate-invariant and delegates.
func (overlayBackend) HandleFault(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) error {
	if s.Kind == mem.FaultOverlay {
		lp.chargeModuleEntry(k)
		k.PageFaults++
		lp.lz.Trace.Record(k.CPU.Cycles, trace.KindPageFault, t.Proc.PID, "%v %v at %v", s.Kind, s.Access, s.VA)
		base := mem.PageAlignDown(s.VA)
		pageKey, ok := lp.okeys.pageKey[base]
		if !ok {
			base = mem.VA(uint64(s.VA) &^ uint64(mem.HugePageMask))
			pageKey = lp.okeys.pageKey[base]
		}
		held := int(k.CPU.Sys(arm64.POREL1) & mem.OverlayKeyMax)
		lp.violation(t, fmt.Sprintf("overlay key mismatch: %v of page %v requires key %d, POR_EL1 holds %d", s.Access, base, pageKey, held))
		return nil
	}
	return lp.lz.handleLZFault(k, t, lp, s)
}

func (overlayBackend) HandleHVC(k *kernel.Kernel, t *kernel.Thread, lp *LZProc, s cpu.Syndrome) (bool, error) {
	return false, nil
}

// EmitOverlaySwitch expands the overlay backend's domain-switch primitive
// into an application program: a single untrapped MSR installing the key in
// keyReg as the active overlay. The sanitizer admits it only under the
// SanOverlay policy.
func EmitOverlaySwitch(a *arm64.Asm, keyReg uint8) {
	a.Emit(arm64.MSR(arm64.POREL1, keyReg))
}

// OverlayGranted returns the allocated overlay keys, ascending (empty for
// other backends).
func (lp *LZProc) OverlayGranted() []int {
	if lp.okeys == nil {
		return nil
	}
	out := make([]int, 0, len(lp.okeys.granted))
	for key := range lp.okeys.granted {
		out = append(out, key)
	}
	sort.Ints(out)
	return out
}

// OverlayPageKeys returns a copy of the page-base -> key map the backend
// believes it tagged (nil for other backends). The overlay-key audit
// cross-checks it against the descriptors actually installed.
func (lp *LZProc) OverlayPageKeys() map[mem.VA]int {
	if lp.okeys == nil {
		return nil
	}
	out := make(map[mem.VA]int, len(lp.okeys.pageKey))
	for va, key := range lp.okeys.pageKey {
		out[va] = key
	}
	return out
}

// cloneOverlayState deep-copies the overlay backend's per-process state into
// a forked process clone (no-op for processes on other backends). Confined
// to this file by tools/lint.
func (lp *LZProc) cloneOverlayState(lp2 *LZProc) {
	if lp.okeys == nil {
		return
	}
	st := lp.okeys
	st2 := &overlayState{
		granted:  make(map[int]bool, len(st.granted)),
		nextKey:  st.nextKey,
		freeKeys: append([]int(nil), st.freeKeys...),
		pageKey:  make(map[mem.VA]int, len(st.pageKey)),
	}
	for key := range st.granted {
		st2.granted[key] = st.granted[key]
	}
	for va, key := range st.pageKey {
		st2.pageKey[va] = key
	}
	lp2.okeys = st2
}
