package main

import "math/bits"

// hist is a log-linear histogram of non-negative int64 values (ns): exact
// below 2048 and within 0.1% above, like an HDR histogram with 11
// significant bits. Not safe for concurrent use.
type hist struct {
	counts []int64
	n      int64
	sum    int64
}

const (
	histSub     = 11
	histBuckets = 1<<histSub + (63-histSub)<<(histSub-1)
)

func newHist() *hist { return &hist{counts: make([]int64, histBuckets)} }

func histIndex(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSub
	return 1<<histSub + (e-1)<<(histSub-1) + int(v>>e) - 1<<(histSub-1)
}

// histMid returns the midpoint of bucket i.
func histMid(i int) int64 {
	if i < 1<<histSub {
		return int64(i)
	}
	r := i - 1<<histSub
	e := r>>(histSub-1) + 1
	lo := int64(r&(1<<(histSub-1)-1)+1<<(histSub-1)) << e
	return lo + int64(1)<<e/2
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank q-quantile (0 when empty).
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(len(h.counts) - 1)
}

func (h *hist) max() int64 {
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] > 0 {
			return histMid(i)
		}
	}
	return 0
}

// summary is the serialised form of a hist.
type summary struct {
	N   int64   `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	Sum float64 `json:"sum"`
}

func (h *hist) summary() summary {
	return summary{N: h.n, P50: float64(h.quantile(0.50)), P90: float64(h.quantile(0.90)),
		P99: float64(h.quantile(0.99)), Max: float64(h.max()), Sum: float64(h.sum)}
}
