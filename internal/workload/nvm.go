package workload

// Figure 5 — NVM data isolation (§9.3), after MERR: multiple 2MB buffers
// filled with strings; each operation performs a substring search over a
// randomly selected string (7,000-8,500 cycles per search on both SoCs),
// bracketed by a switch into and out of the buffer's domain. DRAM emulates
// the NVM. The buffers are mapped with 2MB huge pages.
//
// Model parameters: one search = the per-platform search cost; the TTBR
// configuration pays two gate passes per search (grant + revoke), the PAN
// configuration one toggle pair, the baselines one kernel-mediated switch.
var nvmParams = AppParams{
	Name: "nvm",
	WorkCycles: map[string]float64{
		"Carmel":    7_800,
		"CortexA55": 7_400,
	},
	SyscallsPerReq:    0,
	GatePassesPerReq:  2,
	PanPairsPerReq:    1,
	WPSwitchesPerReq:  1,
	LwCSwitchesPerReq: 1,
	Domains:           64,
	S2MissesPerReq: map[string]float64{
		"Carmel":    1.0,
		"CortexA55": 0.2,
	},
	TTBRS1MissesPerReq: 0.5,
}

// NVMDomainCounts is the buffer-count sweep of Figure 5.
var NVMDomainCounts = []int{2, 4, 8, 16, 32, 64, 128}

// NVMSeries is one variant's Figure 5 curve: time overhead (%) versus the
// number of 2MB buffers.
type NVMSeries struct {
	Variant Variant
	// OverheadPct is indexed like NVMDomainCounts.
	OverheadPct []float64
}

// NVMFigure computes the Figure 5 series for one platform.
func NVMFigure(pr *Primitives) ([]NVMSeries, error) {
	out := make([]NVMSeries, 0, 4)
	for _, v := range []Variant{VariantLZPAN, VariantLZTTBR, VariantWatchpoint, VariantLwC} {
		s := NVMSeries{Variant: v}
		for _, d := range NVMDomainCounts {
			p := nvmParams
			p.Domains = d
			pct, err := pr.OverheadPct(p, v)
			if err != nil {
				return nil, err
			}
			s.OverheadPct = append(s.OverheadPct, pct)
		}
		out = append(out, s)
	}
	return out, nil
}
