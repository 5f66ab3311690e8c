package cpu

import "sync/atomic"

// HostPerf is a process-wide aggregate of host-observability counters:
// every Run call adds its emulated-instruction and cache-statistic deltas
// on return. The host-speed benchmark (bench/) divides the instruction
// aggregate by wall time to report host throughput — emulated instructions
// per host second — per benchmark suite. Observation only: the counters are
// never read back into emulation, so they are not part of the identity
// surface.
type HostPerf struct {
	Insns      int64
	TLBHits    int64
	TLBMisses  int64
	CodeHits   int64
	CodeMisses int64
}

var hostPerf struct {
	insns, tlbHits, tlbMisses, codeHits, codeMisses atomic.Int64
}

// notePerf accumulates one Run call's deltas into the process aggregate.
func notePerf(insns, tlbHits, tlbMisses, codeHits, codeMisses int64) {
	hostPerf.insns.Add(insns)
	hostPerf.tlbHits.Add(tlbHits)
	hostPerf.tlbMisses.Add(tlbMisses)
	hostPerf.codeHits.Add(codeHits)
	hostPerf.codeMisses.Add(codeMisses)
}

// ReadHostPerf returns the current process-wide aggregate.
func ReadHostPerf() HostPerf {
	return HostPerf{
		Insns:      hostPerf.insns.Load(),
		TLBHits:    hostPerf.tlbHits.Load(),
		TLBMisses:  hostPerf.tlbMisses.Load(),
		CodeHits:   hostPerf.codeHits.Load(),
		CodeMisses: hostPerf.codeMisses.Load(),
	}
}

// Sub returns the delta h - prev, for per-suite reporting.
func (h HostPerf) Sub(prev HostPerf) HostPerf {
	return HostPerf{
		Insns:      h.Insns - prev.Insns,
		TLBHits:    h.TLBHits - prev.TLBHits,
		TLBMisses:  h.TLBMisses - prev.TLBMisses,
		CodeHits:   h.CodeHits - prev.CodeHits,
		CodeMisses: h.CodeMisses - prev.CodeMisses,
	}
}
