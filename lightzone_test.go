package lightzone

import (
	"strings"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("quick").
		EnterLightZone(true, SanTTBR).
		LoadImm(1, DataAddr()).
		LoadImm(2, 0xAB).
		Store(2, 1, 0).
		Load(3, 1, 0).
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatalf("killed: %s", res.KillMsg)
	}
	if res.Registers[3] != 0xAB {
		t.Errorf("x3 = %#x", res.Registers[3])
	}
}

// TestPublicAPIListing1 reproduces the paper's Listing 1 via the public
// API: two mutually distrusting parts in separate TTBR domains plus a
// PAN-protected key page that both can reach by dropping PAN.
func TestPublicAPIListing1(t *testing.T) {
	const (
		data0 = uint64(0x4100_0000)
		data1 = uint64(0x4200_0000)
		key   = uint64(0x4300_0000)
	)
	sys, err := NewSystem(WithProfile("carmel"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("listing1").
		EnterLightZone(true, SanTTBR). // lz_enter(true, 1)
		MMap(data0, PageSize, ProtRead|ProtWrite).
		MMap(data1, PageSize, ProtRead|ProtWrite).
		MMap(key, PageSize, ProtRead|ProtWrite).
		AllocPageTable(). // pgt0 = lz_alloc() -> id 1
		AllocPageTable(). // pgt1 = lz_alloc() -> id 2
		MapGatePgt(1, 0). // lz_map_gate_pgt(pgt0, 0)
		MapGatePgt(2, 1). // lz_map_gate_pgt(pgt1, 1)
		Protect(data0, PageSize, 1, PermRead|PermWrite).
		Protect(data1, PageSize, 2, PermRead|PermWrite).
		Protect(key, PageSize, 0, PermRead|PermUser). // PGT_ALL semantics: user pages live in every table
		SwitchToGate(0).                              // pass gate0
		LoadImm(1, data0).
		LoadImm(2, 100).
		Store(2, 1, 0). // data0 = 100
		SetPAN(false).
		LoadImm(3, key).
		Load(4, 3, 0). // read key
		Add(2, 2, 4).  // data0 = enc(data0, key) stand-in
		Store(2, 1, 0).
		SetPAN(true).
		SwitchToGate(1). // pass gate1
		LoadImm(1, data1).
		LoadImm(2, 200).
		Store(2, 1, 0). // data1 = 200
		Load(19, 1, 0).
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatalf("killed: %s", res.KillMsg)
	}
	if res.Registers[19] != 200 {
		t.Errorf("data1 = %d", res.Registers[19])
	}
}

func TestPublicAPIViolationDetection(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	const secret = uint64(0x4400_0000)
	p := NewProgram("attacker").
		EnterLightZone(true, SanTTBR).
		MMap(secret, PageSize, ProtRead|ProtWrite).
		AllocPageTable().
		Protect(secret, PageSize, 1, PermRead|PermWrite).
		// Access the protected page while still in the base domain.
		LoadImm(1, secret).
		Load(0, 1, 0).
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed || !strings.Contains(res.KillMsg, "not mapped by current page table") {
		t.Errorf("killed=%v msg=%q", res.Killed, res.KillMsg)
	}
	if sys.Violations("attacker") != 1 {
		t.Errorf("violations = %d", sys.Violations("attacker"))
	}
}

// TestViolationsReadsMostRecentProcess: Violations reports the most recent
// process run under a name, so a clean rerun of a program that violated
// reads 0, not the earlier run's count.
func TestViolationsReadsMostRecentProcess(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	const secret = uint64(0x4400_0000)
	attack := func(violate bool) *Program {
		p := NewProgram("attacker").
			EnterLightZone(true, SanTTBR).
			MMap(secret, PageSize, ProtRead|ProtWrite).
			AllocPageTable().
			Protect(secret, PageSize, 1, PermRead|PermWrite)
		if violate {
			p = p.LoadImm(1, secret).Load(0, 1, 0)
		}
		return p.Exit(0)
	}
	for i, violate := range []bool{true, false} {
		res, err := sys.Run(attack(violate))
		if err != nil {
			t.Fatal(err)
		}
		if res.Killed != violate {
			t.Fatalf("run %d: killed=%v msg=%q", i, res.Killed, res.KillMsg)
		}
		want := int64(0)
		if violate {
			want = 1
		}
		if got := sys.Violations("attacker"); got != want {
			t.Errorf("run %d: violations = %d, want %d", i, got, want)
		}
	}
	if got := sys.Violations("never-run"); got != 0 {
		t.Errorf("violations of an unknown name = %d, want 0", got)
	}
}

func TestPublicAPIMeasurement(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("measured").
		EnterLightZone(false, SanPAN).
		MarkBegin().
		Loop(10, 100, func(p *Program) {
			p.SetPAN(false).SetPAN(true)
		}).
		MarkEnd().
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatalf("killed: %s", res.KillMsg)
	}
	if res.Cycles <= 0 {
		t.Errorf("no cycles measured: %d", res.Cycles)
	}
}

func TestPublicAPIGuestPlacement(t *testing.T) {
	sys, err := NewSystem(InGuest(), WithProfile("carmel"))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Platform() != "Carmel Guest" {
		t.Errorf("platform = %q", sys.Platform())
	}
	p := NewProgram("guestapp").
		EnterLightZone(true, SanTTBR).
		Getpid().
		Mov(19, 0).
		Exit(3)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed || res.ExitCode != 3 {
		t.Fatalf("killed=%v code=%d msg=%s", res.Killed, res.ExitCode, res.KillMsg)
	}
	if res.Registers[19] == 0 {
		t.Error("getpid returned 0")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := NewSystem(WithProfile("m1max")); err == nil {
		t.Error("bogus profile accepted")
	}
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("double").EnterLightZone(true, SanTTBR).EnterLightZone(true, SanTTBR)
	if _, err := sys.Run(p); err == nil {
		t.Error("double EnterLightZone accepted")
	}
}

func TestBenchFacade(t *testing.T) {
	plat, ok := PlatformFor("cortexa55", false)
	if !ok {
		t.Fatal("platform lookup failed")
	}
	avg, err := DomainSwitchBench(plat, VariantLZPAN, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if avg <= 0 || avg > 1000 {
		t.Errorf("PAN switch = %f", avg)
	}
	results, err := RunPentest(plat)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Errorf("pentest scenarios = %d", len(results))
	}
}

func TestPublicAPIControlFlow(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	// Sum 1..5 with explicit labels and jumps.
	p := NewProgram("flow").
		EnterLightZone(true, SanTTBR).
		LoadImm(1, 5).
		LoadImm(2, 0).
		Label("loop").
		Add(2, 2, 1).
		LoadImm(3, 1).
		Sub(1, 1, 3).
		JumpIfNonZero(1, "loop").
		ShiftLeft(4, 2, 4). // 15 << 4
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatalf("killed: %s", res.KillMsg)
	}
	if res.Registers[2] != 15 || res.Registers[4] != 240 {
		t.Errorf("x2=%d x4=%d", res.Registers[2], res.Registers[4])
	}
}

func TestPublicAPIRegionsAndData(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	const region = uint64(0x4500_0000)
	p := NewProgram("regions").
		WithData([]byte{0x11, 0x22, 0x33}).
		WithRegion(region, PageSize, ProtRead|ProtWrite).
		EnterLightZone(true, SanTTBR).
		LoadImm(1, DataAddr()).
		LoadByte(2, 1, 1). // 0x22 from the data section
		LoadImm(3, region).
		Store(2, 3, 0). // write into the declared region
		Load(4, 3, 0).
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatalf("killed: %s", res.KillMsg)
	}
	if res.Registers[2] != 0x22 || res.Registers[4] != 0x22 {
		t.Errorf("x2=%#x x4=%#x", res.Registers[2], res.Registers[4])
	}
}

func TestPublicAPIStdout(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("writer").
		WithData([]byte("zone!")).
		EnterLightZone(false, SanPAN).
		Write(DataAddr(), 5).
		Exit(0)
	res, err := sys.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "zone!" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestPublicAPIGateRangeError(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("badgate").EnterLightZone(true, SanTTBR).SwitchToGate(1 << 20)
	if _, err := sys.Run(p); err == nil {
		t.Error("out-of-range gate accepted")
	}
}
