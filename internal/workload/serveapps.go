package workload

import (
	"fmt"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
)

// Serve-mode application models: the figure workloads recast as long-lived
// services under continuous load. Each carries its request model (the same
// AppParams the figures use), a steady-state resident zone count, and the
// expected lz_alloc/lz_free churn per request — connection-lifetime key
// domains for nginx, per-connection stack domains for MySQL, object-buffer
// domains for NVM. The serve harness (internal/serve) composes these with
// measured primitives.

// ServeApp is one service the always-on harness can drive.
type ServeApp struct {
	Name string
	// Params is the request-level cost model (see AppParams); the harness
	// overrides Domains with the regime-capped live zone count.
	Params AppParams
	// ServeZones is the steady-state resident zone count of the service:
	// the domain population a long-lived process holds between requests.
	ServeZones int
	// ZoneChurnPerReq is the expected lz_alloc+lz_free pairs per request
	// (connection setup/teardown amortized over keep-alive requests).
	ZoneChurnPerReq float64
}

// ServeApps returns the services in presentation order. The zone counts are
// the long-lived-service analogues of the figure workloads: nginx holds two
// AES_KEY domains per live connection (93 connections), MySQL two stack
// domains per connection thread (33 threads), NVM one domain per resident
// buffer at the largest figure-5 count.
func ServeApps() []ServeApp {
	return []ServeApp{
		{Name: "nginx", Params: nginxParams, ServeZones: 186, ZoneChurnPerReq: 0.1},
		{Name: "mysql", Params: mysqlParams, ServeZones: 66, ZoneChurnPerReq: 0.02},
		{Name: "nvm", Params: nvmParams, ServeZones: 128, ZoneChurnPerReq: 0.01},
	}
}

// churnMeasurePairs is the iteration count of the churn-pair probe.
const churnMeasurePairs = 32

// MeasureChurnPair measures the cycle cost of one zone churn pair —
// lz_alloc, lz_prot of one page, lz_free — on a process already holding
// liveZones resident zones, with the real machinery: the guest program
// builds the resident set, then the marker window brackets
// churnMeasurePairs recycled alloc/prot/free cycles. The resident set
// matters because lz_alloc clones the base table and lz_free scrubs, so
// the pair cost scales with live state.
func MeasureChurnPair(plat Platform, liveZones int) (float64, error) {
	if liveZones < 1 || liveZones > 500 {
		return 0, fmt.Errorf("churn probe: %d live zones outside the one-TTBRTab-page regime", liveZones)
	}
	env, err := NewEnv(plat)
	if err != nil {
		return 0, err
	}
	a := arm64.NewAsm()
	svcCall(a, core.SysLZEnter, 1, uint64(core.SanTTBR))
	// Resident set: zone d protects page d-1, ids are sequential from 1.
	a.MovImm(21, 1)
	a.MovImm(22, domainRegionBase)
	a.Label("setup")
	a.MovImm(8, core.SysLZAlloc)
	a.Emit(arm64.HVC(core.HVCSyscall))
	a.Emit(arm64.MOVReg(0, 22))
	a.MovImm(1, uint64(mem.PageSize))
	a.Emit(arm64.MOVReg(2, 21))
	a.MovImm(3, uint64(core.PermRead|core.PermWrite))
	a.MovImm(8, core.SysLZProt)
	a.Emit(arm64.HVC(core.HVCSyscall))
	a.Emit(arm64.ADDImm(22, 22, 2048, false))
	a.Emit(arm64.ADDImm(22, 22, 2048, false))
	a.Emit(arm64.ADDImm(21, 21, 1, false))
	a.Emit(arm64.CMPImm(21, uint16(liveZones+1)))
	a.BCond(arm64.CondNE, "setup")
	// Measured churn: the free list recycles id liveZones+1 every pair, so
	// the pair body is position-independent of the iteration count.
	churnID := uint64(liveZones + 1)
	sparePage := domainRegionBase + uint64(liveZones)*uint64(mem.PageSize)
	hvcCall(a, SysMarkBegin)
	a.MovImm(19, churnMeasurePairs)
	a.Label("pair")
	a.MovImm(8, core.SysLZAlloc)
	a.Emit(arm64.HVC(core.HVCSyscall))
	a.MovImm(0, sparePage)
	a.MovImm(1, uint64(mem.PageSize))
	a.MovImm(2, churnID)
	a.MovImm(3, uint64(core.PermRead|core.PermWrite))
	a.MovImm(8, core.SysLZProt)
	a.Emit(arm64.HVC(core.HVCSyscall))
	a.MovImm(0, churnID)
	a.MovImm(8, core.SysLZFree)
	a.Emit(arm64.HVC(core.HVCSyscall))
	a.Emit(arm64.SUBImm(19, 19, 1, false))
	a.CBNZ(19, "pair")
	hvcCall(a, SysMarkEnd)
	hvcCall(a, kernel.SysExit, 0)

	p, err := env.NewProcess("churn-probe", a, nil, nil, kernel.VMA{
		Start: mem.VA(domainRegionBase),
		End:   mem.VA(domainRegionBase + uint64(liveZones+2)*uint64(mem.PageSize)),
		Prot:  kernel.ProtRead | kernel.ProtWrite,
		Name:  "zones",
	})
	if err != nil {
		return 0, err
	}
	return env.measure(p, int64(10*liveZones+20*churnMeasurePairs+10_000), churnMeasurePairs)
}
