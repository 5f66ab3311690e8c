package serve

import "math/bits"

// Hist is a log-linear latency histogram over non-negative int64 samples
// (the harness records microseconds): values below histSub get exact
// buckets, above that each power of two splits into histSub linear
// sub-buckets, so quantiles stay within ~6% of the true value at any
// magnitude while the bucket array stays a few KB. All integer math — the
// same sample stream always lands in the same buckets.
const histSub = 16

// Hist accumulates samples; the zero value is ready to use.
type Hist struct {
	counts []int64
	n      int64
	max    int64
}

// Record adds one sample (negatives clamp to 0).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketOf(v)
	if idx >= len(h.counts) {
		grown := make([]int64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Quantile returns an upper bound for the q-quantile: the bucket ceiling of
// the sample at rank ceil(q*n). Empty histograms read 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for idx, c := range h.counts {
		seen += c
		if seen >= rank {
			b := bucketMax(idx)
			if b > h.max {
				b = h.max
			}
			return b
		}
	}
	return h.max
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	b := bits.Len64(uint64(v)) - 1 // floor(log2(v)), >= 4
	return histSub*(b-3) + int((v>>(b-4))&(histSub-1))
}

// bucketMax is the largest value mapping to bucket idx (the quantile upper
// bound Quantile reports).
func bucketMax(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	g := idx/histSub + 3
	sub := int64(idx % histSub)
	lo := int64(1)<<g + sub<<(g-4)
	return lo + int64(1)<<(g-4) - 1
}
