package cpu

import (
	"testing"

	"lightzone/internal/mem"
)

// benchLoopInsns is the emulated instruction count of one sumProgram(256)
// pass (2 setup + 3 per iteration + HVC), used to report per-instruction
// throughput.
const benchLoopInsns = 2 + 3*256 + 1

// BenchmarkStep measures the reference interpreter (the lzbench -interp
// pipeline): fetch, decode, dispatch, account — one instruction per Step
// call, with no decode cache, micro-TLBs or traces. This is the baseline
// the block-resident loop is compared against.
func BenchmarkStep(b *testing.B) {
	e := newEnv(b)
	e.c.SetDecodeCache(false)
	e.c.SetHostFastpaths(false)
	e.c.SetTraces(false)
	e.load(b, sumProgram(256))
	e.run(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.rerun(b, 10_000)
	}
	b.ReportMetric(float64(b.N)*benchLoopInsns/b.Elapsed().Seconds(), "insns/s")
}

// BenchmarkBlockReplay measures the block-resident loop on a hot cached
// block: micro-TLB fetch fastpath, no re-decode, batched cycle accounting.
func BenchmarkBlockReplay(b *testing.B) {
	e := newEnv(b)
	e.load(b, sumProgram(256))
	e.run(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.rerun(b, 10_000)
	}
	b.ReportMetric(float64(b.N)*benchLoopInsns/b.Elapsed().Seconds(), "insns/s")
}

// chainInsns is the emulated instruction count of one chainProgram pass.
const chainInsns = 10

// benchStitchedEnv boots an env on chainProgram and runs it until the chain
// is stitched and replaying as a trace (threshold 2: stitch on the third
// pass, traced entry from the fourth).
func benchStitchedEnv(b *testing.B, traces bool) *env {
	e := newEnv(b)
	e.c.SetTraces(traces)
	e.c.SetTraceHotThreshold(2)
	e.load(b, chainProgram())
	e.run(b, 1000)
	for i := 0; i < 3; i++ {
		e.rerun(b, 1000)
	}
	return e
}

// BenchmarkTraceReplay measures the stitched superblock runner on a hot
// multi-block chain: one guard per entry, fused step dispatch, one batched
// stats/charge flush — the PR 9 tier above BenchmarkBlockReplay.
func BenchmarkTraceReplay(b *testing.B) {
	e := benchStitchedEnv(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.rerun(b, 1000)
	}
	b.ReportMetric(float64(b.N)*chainInsns/b.Elapsed().Seconds(), "insns/s")
}

// BenchmarkTraceDispatch runs the same hot chain with tracing off: every
// pass crosses five block boundaries through the generic block-resident
// dispatcher. The delta against BenchmarkTraceReplay is what stitching buys.
func BenchmarkTraceDispatch(b *testing.B) {
	e := benchStitchedEnv(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.rerun(b, 1000)
	}
	b.ReportMetric(float64(b.N)*chainInsns/b.Elapsed().Seconds(), "insns/s")
}

// BenchmarkStitch measures one stitch walk from the chain program's entry
// block. "ok" builds and installs the five-block trace (after dropping the
// previous one); "transient" abandons the walk at an uncached successor —
// the common failure while a fresh machine's cache is still warming up.
func BenchmarkStitch(b *testing.B) {
	b.Run("ok", func(b *testing.B) {
		e, blk, key, pc := stitchReady(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.c.dropAllTraces()
			e.c.maybeStitch(blk, key, pc)
		}
	})
	b.Run("transient", func(b *testing.B) {
		e, blk, key, pc := stitchReady(b)
		uncacheSuccessor(e, blk, pc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.c.maybeStitch(blk, key, pc)
		}
	})
}

// BenchmarkTranslateHit measures Translate on a warm data page: with the
// fastpaths on this is a D-side micro-TLB hit, the cost every load and
// store in the emulator pays.
func BenchmarkTranslateHit(b *testing.B) {
	e := newEnv(b)
	if _, ab := e.c.Translate(dataVA, mem.AccessRead, false); ab != nil {
		b.Fatalf("warm translate aborted: %+v", ab)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ab := e.c.Translate(dataVA, mem.AccessRead, false); ab != nil {
			b.Fatal("translate aborted")
		}
	}
}
