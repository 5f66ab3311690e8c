package workload

import (
	"fmt"

	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Substrate-specific planted attacks of the alternate backends. They target
// each backend's own bookkeeping: overlay-key retags where lightzone has
// gate tampering, granule-delegation violations where lightzone has TTBRTab
// tampering. Each battery then re-plants the substrate-invariant attacks of
// planted.go on its own machine (plantedAttacksFor).

// overlayVictim picks the lowest-addressed keyed page of the process (the
// battery's deterministic tamper target) and returns its base table.
func overlayVictim(lp *core.LZProc) (mem.VA, int, *core.DomainPGT, error) {
	keys := lp.OverlayPageKeys()
	if len(keys) == 0 {
		return 0, 0, nil, fmt.Errorf("no overlay-keyed pages")
	}
	var va mem.VA
	first := true
	for v := range keys {
		if first || v < va {
			va, first = v, false
		}
	}
	d0, ok := lp.PageTable(0)
	if !ok {
		return 0, 0, nil, fmt.Errorf("base page table missing")
	}
	return va, keys[va], d0, nil
}

const overlayKeyAttrMask = uint64(mem.OverlayKeyMax) << mem.OverlayKeyShift

// plantedOverlayAttacks is the overlay battery's key-discipline attacks.
func plantedOverlayAttacks() []plantedAttack {
	// victim rewrites the victim page's descriptor; fn also gets the key
	// the module recorded for the page and the keys lz_alloc granted.
	victim := func(name string, fn func(desc uint64, key int, granted []int) uint64) plantedAttack {
		return plantedTamper(name, "overlay-keys", "overlay", func(env *Env, lp *core.LZProc) (uint64, error) {
			va, key, d0, err := overlayVictim(lp)
			if err != nil {
				return 0, err
			}
			granted := lp.OverlayGranted()
			return uint64(va), rewriteLeaf(d0, va, func(d uint64) uint64 { return fn(d, key, granted) })
		})
	}
	retag := func(d uint64, key int) uint64 { return d&^overlayKeyAttrMask | mem.OverlayKeyAttr(key) }
	return []plantedAttack{
		// Retag a keyed page to another domain's granted key — the overlay
		// form of handing one domain's memory to another.
		victim("key-retag", func(d uint64, old int, granted []int) uint64 {
			for _, g := range granted {
				if g != old {
					return retag(d, g)
				}
			}
			return retag(d, old+1)
		}),
		// Retag to a key lz_alloc never granted.
		victim("ungranted-key", func(d uint64, _ int, _ []int) uint64 { return retag(d, 200) }),
		// Strip the protected marker while keeping the key: the module's
		// fault classification would no longer recognize the page.
		victim("marker-strip", func(d uint64, _ int, _ []int) uint64 { return d &^ mem.AttrSWLZProt }),
	}
}

// plantedGranuleAttacks is the granule battery's delegation-discipline
// attacks.
func plantedGranuleAttacks() []plantedAttack {
	// zone1 rewrites the leaf mapping va in zone 1's table.
	zone1 := func(name string, va mem.VA, fn func(uint64) uint64) plantedAttack {
		return plantedTamper(name, "granule-state", "granule", func(env *Env, lp *core.LZProc) (uint64, error) {
			d1, ok := lp.PageTable(1)
			if !ok {
				return 0, fmt.Errorf("zone 1 table missing")
			}
			return uint64(va), rewriteLeaf(d1, va, fn)
		})
	}
	return []plantedAttack{
		// Map zone 1's delegated granule into zone 2's table with the
		// protected marker — a cross-zone alias of delegated memory.
		plantedTamper("cross-zone-alias", "granule-state", "granule", func(env *Env, lp *core.LZProc) (uint64, error) {
			va := DomainVA(0) // protected by zone 1 in the clean run
			d1, ok1 := lp.PageTable(1)
			d2, ok2 := lp.PageTable(2)
			if !ok1 || !ok2 {
				return 0, fmt.Errorf("zone tables missing")
			}
			res, err := d1.S1.Walk(va)
			if err != nil || !res.Found {
				return 0, fmt.Errorf("victim %v not mapped in zone 1: %v", va, err)
			}
			attrs := res.Desc &^ (mem.OAMask | mem.DescValid | mem.DescTable | mem.AttrAF)
			return uint64(va), d2.S1.Map(va, mem.PA(res.Desc&mem.OAMask), attrs)
		}),
		// Tag an ordinary shared page zone-protected without any
		// delegation backing it.
		zone1("undelegated-tag", mem.VA(kernel.DataBase), func(d uint64) uint64 { return d | mem.AttrSWLZProt }),
		// Strip the protection and ASID tagging from a delegated
		// granule's own mapping: delegated memory becomes reachable
		// through an unprotected global mapping.
		zone1("unprotected-alias", DomainVA(0), func(d uint64) uint64 { return d &^ (mem.AttrSWLZProt | mem.AttrNG) }),
	}
}
