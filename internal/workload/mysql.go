package workload

// Figure 4 — multi-threaded database protection in MySQL 8.0 (§9.2).
//
// Workload: sysbench OLTP read-write over 10 tables x 10,000 records; each
// connection thread's stack is isolated in its own TTBR domain, and the
// MEMORY storage engine's HP_PTRS heap objects are PAN-protected in every
// configuration that can express it.
//
// Model parameters: each transaction is ~20 queries; the TTBR
// configuration crosses a stack-domain gate on query entry/exit (40 gate
// passes), both LightZone configurations toggle PAN around HP_PTRS
// accesses (200 pairs: 20 queries x ~10 row touches), the Watchpoint
// prototype protects the heap at query granularity (it cannot afford
// per-row switches and cannot isolate stacks at all), and lwC switches
// contexts per query batch.
var mysqlParams = AppParams{
	Name: "mysql",
	WorkCycles: map[string]float64{
		"Carmel":    450_000,
		"CortexA55": 650_000,
	},
	SyscallsPerReq:    2,
	GatePassesPerReq:  40,
	PanPairsPerReq:    200,
	WPSwitchesPerReq:  10,
	LwCSwitchesPerReq: 8,
	Domains:           33, // 32 connection stacks + base
	S2MissesPerReq: map[string]float64{
		"Carmel":    15,
		"CortexA55": 15,
	},
	TTBRS1MissesPerReq: 10,
}

// MySQLThreads is the sysbench thread sweep of Figure 4.
var MySQLThreads = []int{1, 2, 4, 8, 16, 32, 64}

// MySQLFigure computes the Figure 4 series for one platform: throughput
// versus client thread count. Threads beyond the core count contend, and
// TTBR-protected configurations additionally suffer TLB pressure from the
// per-thread stack domains ("when there are >=16 concurrent threads, the
// loss of TTBR-based LightZone stabilizes at 5.26% to 6.23% due to
// considerable memory footprint and limited TLB coverage", §9.2).
func MySQLFigure(pr *Primitives) ([]FigureSeries, error) {
	cores := 8 // Jetson AGX Xavier
	if pr.Plat.Prof.Name == "CortexA55" {
		cores = 4 // Banana Pi BPI-M5
	}
	base, err := pr.CyclesPerRequest(mysqlParams, VariantNone)
	if err != nil {
		return nil, err
	}
	freq := float64(pr.Plat.Prof.CPUFreqMHz) * 1e6
	out := make([]FigureSeries, 0, len(Variants()))
	for _, v := range Variants() {
		s := FigureSeries{Variant: v}
		var satBase, satCur float64
		for _, threads := range MySQLThreads {
			p := mysqlParams
			p.Domains = threads + 1
			cyc, err := pr.CyclesPerRequest(p, v)
			if err != nil {
				return nil, err
			}
			// TLB pressure from per-thread stack domains: each
			// additional running domain displaces entries; the term
			// saturates once every thread owns a resident stack set.
			if v == VariantLZTTBR && threads >= 16 {
				cyc += float64(min(threads, 48)) * 1.4 * pr.S1MissCost
			}
			scale := float64(min(threads, cores))
			if threads > cores {
				scale *= 1 - 0.05*float64(threads-cores)/float64(threads)
			}
			tput := freq / cyc * scale
			s.Points = append(s.Points, FigurePoint{X: threads, Tput: tput})
			if threads >= 16 {
				satCur += cyc
				satBase += base
			}
		}
		s.OverheadPct = (satCur - satBase) / satCur * 100
		out = append(out, s)
	}
	return out, nil
}
