package core

import (
	"reflect"
	"strings"
	"testing"

	"lightzone/internal/kernel"
)

// TestForkCarriesPreparation: a module forked before lz_enter carries what
// preparation set — options, backend and the registered gate entries —
// into a module of its own.
func TestForkCarriesPreparation(t *testing.T) {
	r := newRig(t)
	p, err := r.m.Host.CreateProcess("zygote", kernel.Program{})
	if err != nil {
		t.Fatal(err)
	}
	entries := []GateEntry{{GateID: 0, Entry: uint64(kernel.TextBase)}, {GateID: 3, Entry: uint64(kernel.TextBase) + 8}}
	r.lz.RegisterGateEntries(p, entries)
	r.lz.Opts.DisableEagerS2 = true
	if err := r.lz.SetBackend("granule"); err != nil {
		t.Fatal(err)
	}
	m2 := r.m.Fork()
	lz2 := r.lz.Fork(m2.Hyp)
	if lz2.Hyp != m2.Hyp || lz2.Opts != r.lz.Opts || lz2.BackendName() != "granule" || len(lz2.Procs()) != 0 {
		t.Errorf("forked module: hyp forked %v, opts %+v, backend %s, %d procs",
			lz2.Hyp == m2.Hyp, lz2.Opts, lz2.BackendName(), len(lz2.Procs()))
	}
	if !reflect.DeepEqual(lz2.pendingEntries, r.lz.pendingEntries) {
		t.Errorf("forked gate entries %v, want %v", lz2.pendingEntries, r.lz.pendingEntries)
	}
	lz2.pendingEntries[p.PID][0].Entry = 0
	if r.lz.pendingEntries[p.PID][0] != entries[0] {
		t.Error("forked gate entries alias the parent's")
	}
}

// TestForkRefusesEnteredProcess: lz_enter builds the per-process VM,
// domain tables, gate pages and fake-physical layer, which a fork does not
// carry, so forking a module with a process in LightZone panics.
func TestForkRefusesEnteredProcess(t *testing.T) {
	r := newRig(t)
	p, err := r.m.Host.CreateProcess("entered", kernel.Program{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.lz.EnterProcess(r.m.Host, p, true, SanTTBR); err != nil {
		t.Fatal(err)
	}
	m2 := r.m.Fork()
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "process in LightZone") {
			t.Fatalf("Fork after EnterProcess: recovered %q, want the LightZone-process panic", r)
		}
	}()
	r.lz.Fork(m2.Hyp)
}
