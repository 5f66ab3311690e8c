package kernel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"lightzone/internal/arm64"
)

// forkKernel forks k onto a fork of its memory and vCPU.
func forkKernel(k *Kernel) *Kernel {
	pm2 := k.PM.Fork()
	return k.Fork(pm2, k.CPU.Fork(pm2), nil)
}

// TestForkKeepsAllocators: a kernel forked after CreateProcess and before
// any SwitchTo holds the created process — same ids, thread state, initial
// context and text — and hands out the same next PID, TID and ASID as its
// parent.
func TestForkKeepsAllocators(t *testing.T) {
	k := newTestKernel(t)
	text := []uint32{arm64.MOVZ(0, 1, 0), arm64.MOVZ(1, 2, 0)}
	p, err := k.CreateProcess("zygote", Program{Text: text})
	if err != nil {
		t.Fatal(err)
	}
	k2 := forkKernel(k)

	p2, ok := k2.Process(p.PID)
	if !ok {
		t.Fatal("forked kernel lost the created process")
	}
	t1, t2 := p.MainThread(), p2.MainThread()
	if p2.Name != p.Name || p2 == p || t2.Proc != p2 || t2.TID != t1.TID || t2.State != t1.State || t2.Ctx != t1.Ctx {
		t.Errorf("forked process %+v / thread %+v, want a copy of %+v / %+v", p2, t2, p, t1)
	}
	got := make([]byte, 4*len(text))
	if err := p2.AS.ReadVA(TextBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arm64.WordsToBytes(text)) {
		t.Errorf("forked text = %x, want %x", got, arm64.WordsToBytes(text))
	}

	next := func(k *Kernel) []int {
		q, err := k.CreateProcess("next", Program{})
		if err != nil {
			t.Fatal(err)
		}
		return []int{q.PID, q.MainThread().TID, int(q.AS.S1.ASID()), int(k.AllocASID())}
	}
	if parent, child := next(k), next(k2); !reflect.DeepEqual(parent, child) {
		t.Errorf("next PID, TID, ASIDs: parent %v, forked %v", parent, child)
	}
}

// TestForkRefusesScheduledThread: a kernel forks only before it schedules
// a thread. Past that point the fork would have to carry the current
// thread, signal state and run counters, and it panics instead.
func TestForkRefusesScheduledThread(t *testing.T) {
	k := newTestKernel(t)
	p, err := k.CreateProcess("ran", Program{Text: []uint32{arm64.MOVZ(0, 1, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	w := k.worldFor(p)
	k.SwitchTo(p.MainThread(), &w)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "scheduled a thread") {
			t.Fatalf("Fork after SwitchTo: recovered %q, want the scheduled-thread panic", r)
		}
	}()
	forkKernel(k)
}
