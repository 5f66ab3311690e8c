package workload

// Figure 3 — cryptographic key protection in Nginx (§9.1).
//
// Workload: ab issues 10,000 HTTPS requests for a 1KB file against a
// single-worker Nginx 1.12.1 whose OpenSSL AES keys are isolated: one
// domain per AES_KEY instance with function-grained call gates (TTBR), or
// all keys in one PAN domain. The model parameters below encode the
// per-request structure; the measured primitives supply every cycle cost.
//
// Model parameters (see EXPERIMENTS.md for the derivation):
//   - Work cycles: steady-state request processing (TLS record decrypt/
//     encrypt of 1KB, HTTP parsing, buffer management) excluding kernel
//     crossings.
//   - 1 blocking kernel crossing per keep-alive request on the epoll
//     critical path (other syscalls overlap with interrupt processing).
//   - 10 gate passes per request: 5 key uses x (acquire + release).
//   - 4 PAN toggle pairs per request in the PAN configuration (key
//     accesses batched per TLS record).
//   - ~93 live key domains (one per connection's AES_KEY) — the domain
//     count that also drives the §9.1 memory overheads.
var nginxParams = AppParams{
	Name: "nginx",
	WorkCycles: map[string]float64{
		"Carmel":    81_000,
		"CortexA55": 139_000,
	},
	SyscallsPerReq:    1,
	GatePassesPerReq:  10,
	PanPairsPerReq:    4,
	WPSwitchesPerReq:  10,
	LwCSwitchesPerReq: 10,
	Domains:           93,
	S2MissesPerReq: map[string]float64{
		"Carmel":    17,
		"CortexA55": 17,
	},
	TTBRS1MissesPerReq: 6,
}

// NginxConcurrencies is the ab -c sweep of Figure 3.
var NginxConcurrencies = []int{1, 2, 4, 8, 16, 24, 32}

// FigurePoint is one (x, throughput) sample of a figure series.
type FigurePoint struct {
	X    int
	Tput float64 // requests (or transactions) per second
}

// FigureSeries is one variant's curve.
type FigureSeries struct {
	Variant Variant
	Points  []FigurePoint
	// OverheadPct is the saturated relative loss against the
	// unprotected configuration (the number the paper quotes in §9).
	OverheadPct float64
}

// NginxFigure computes the Figure 3 series for one platform.
func NginxFigure(pr *Primitives) ([]FigureSeries, error) {
	return requestFigure(pr, nginxParams, NginxConcurrencies, saturate)
}

// saturate models a single-worker server under c concurrent clients:
// throughput ramps to the service capacity as the client pool hides
// network round-trips.
func saturate(capacity float64, c int) float64 {
	return capacity * float64(c) / (float64(c) + 0.35)
}

// requestFigure evaluates all variants of a request workload.
func requestFigure(pr *Primitives, p AppParams, xs []int, curve func(float64, int) float64) ([]FigureSeries, error) {
	base, err := pr.CyclesPerRequest(p, VariantNone)
	if err != nil {
		return nil, err
	}
	freq := float64(pr.Plat.Prof.CPUFreqMHz) * 1e6
	out := make([]FigureSeries, 0, len(Variants()))
	for _, v := range Variants() {
		cyc, err := pr.CyclesPerRequest(p, v)
		if err != nil {
			return nil, err
		}
		s := FigureSeries{
			Variant:     v,
			OverheadPct: (cyc - base) / cyc * 100,
		}
		capacity := freq / cyc
		for _, x := range xs {
			s.Points = append(s.Points, FigurePoint{X: x, Tput: curve(capacity, x)})
		}
		out = append(out, s)
	}
	return out, nil
}
