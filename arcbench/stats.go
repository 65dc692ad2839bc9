package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. xs is sorted in place. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadPct is (max−min)/median of xs in percent: how far apart the
// slices of one window landed.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m * 100
}

// ladderSelf turns the p50 of each ladder depth (shallowest first) into
// per-depth self times: a depth's self time is its p50 minus the next
// deeper depth's, and the deepest depth keeps its whole p50 — so the
// self times sum to depth 0's p50 by construction.
func ladderSelf(depthP50 []float64) []float64 {
	self := make([]float64, len(depthP50))
	for i, v := range depthP50 {
		if i+1 < len(depthP50) {
			v -= depthP50[i+1]
		}
		self[i] = v
	}
	return self
}

// weighted is the op-mix-weighted mean of per-class values. Classes
// with no value (absent from vals) contribute nothing and their weight
// is dropped, so a layer only some classes reach is averaged over those
// classes' share of the mix.
func weighted(vals map[string]float64, weight map[string]float64) (float64, bool) {
	var sum, w float64
	for name, v := range vals {
		sum += v * weight[name]
		w += weight[name]
	}
	if w == 0 {
		return 0, false
	}
	return sum / w, true
}
