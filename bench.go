package lightzone

import (
	"lightzone/internal/arm64"
	"lightzone/internal/workload"
)

// The bench facade re-exports the evaluation harness so downstream users
// regenerate the paper's tables and figures against the public API. The
// commands inside this module (cmd/lzbench among them) drive
// internal/workload directly.

// Variant names an isolation mechanism under evaluation (the five curves
// of Figures 3-5).
type Variant = workload.Variant

// Evaluated variants.
const (
	VariantNone       = workload.VariantNone
	VariantLZPAN      = workload.VariantLZPAN
	VariantLZTTBR     = workload.VariantLZTTBR
	VariantWatchpoint = workload.VariantWatchpoint
	VariantLwC        = workload.VariantLwC
)

// BenchPlatform selects one of the paper's four evaluation platforms.
type BenchPlatform = workload.Platform

// Platforms returns Carmel Host/Guest and Cortex Host/Guest.
func Platforms() []BenchPlatform { return workload.AllPlatforms() }

// PlatformFor builds a platform selector.
func PlatformFor(profile string, guest bool) (BenchPlatform, bool) {
	prof, ok := arm64.ProfileByName(profile)
	if !ok {
		return BenchPlatform{}, false
	}
	return BenchPlatform{Prof: prof, Guest: guest}, true
}

// DomainSwitchBench runs the Table 5 microbenchmark: iters random domain
// switches (each followed by an 8-byte access) over the given number of
// 4KB domains, returning the average cycles per switch.
func DomainSwitchBench(plat BenchPlatform, variant Variant, domains, iters int) (float64, error) {
	res, err := workload.RunDomainSwitch(workload.DomainSwitchConfig{
		Platform: plat, Variant: variant, Domains: domains, Iters: iters, Seed: 42,
	})
	if err != nil {
		return 0, err
	}
	return res.AvgCycles, nil
}

// Primitives measures the per-operation cycle costs of a platform (used
// by the figure benchmarks).
type Primitives = workload.Primitives

// MeasurePrimitives runs the measurement probes for a platform.
func MeasurePrimitives(plat BenchPlatform) (*Primitives, error) {
	return workload.MeasurePrimitives(plat)
}

// FigureSeries is one variant's throughput curve with its saturated
// overhead percentage.
type FigureSeries = workload.FigureSeries

// NginxBenchmark regenerates Figure 3 for one platform.
func NginxBenchmark(pr *Primitives) ([]FigureSeries, error) {
	return workload.NginxFigure(pr)
}

// MySQLBenchmark regenerates Figure 4 for one platform.
func MySQLBenchmark(pr *Primitives) ([]FigureSeries, error) {
	return workload.MySQLFigure(pr)
}

// NVMSeries is one variant's Figure 5 curve.
type NVMSeries = workload.NVMSeries

// NVMBenchmark regenerates Figure 5 for one platform.
func NVMBenchmark(pr *Primitives) ([]NVMSeries, error) {
	return workload.NVMFigure(pr)
}

// NVMDomainCounts is Figure 5's x-axis.
func NVMDomainCounts() []int { return workload.NVMDomainCounts }

// MemoryOverheads carries the §9.1-§9.3 memory numbers.
type MemoryOverheads = workload.MemoryOverheads

// NginxMemory measures the §9.1 memory overheads.
func NginxMemory(plat BenchPlatform) (MemoryOverheads, error) {
	return workload.NginxMemory(plat)
}

// MySQLMemory measures the §9.2 memory overheads.
func MySQLMemory(plat BenchPlatform) (MemoryOverheads, error) {
	return workload.MySQLMemory(plat)
}

// NVMMemory measures the §9.3 memory overheads.
func NVMMemory(plat BenchPlatform) (MemoryOverheads, error) {
	return workload.NVMMemory(plat)
}

// PentestResult is one §7.2 attack outcome.
type PentestResult = workload.PentestResult

// RunPentest executes the §7.2 attack battery.
func RunPentest(plat BenchPlatform) ([]PentestResult, error) {
	return workload.RunPentest(plat)
}
