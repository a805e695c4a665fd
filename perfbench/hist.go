package main

import (
	"math/bits"
	"sort"
)

// subBits sets the histogram's resolution: each power-of-two range of
// nanoseconds is split into 1<<subBits equal buckets, so a quantile is
// read back within 1/128 (0.8%) of the recorded value. That is far
// finer than any bound in BENCHMARK.json, and unlike the log2 buckets of
// internal/stats a quantile cannot jump by 2x when it crosses a bucket
// edge.
const subBits = 7

const subCount = 1 << subBits

// hist is a log-linear latency histogram in nanoseconds. It holds every
// sample of a run in fixed memory: a 10 s lock-array run takes ~20 M
// samples, which as raw int64s would dominate the heap being measured.
type hist struct {
	counts [64 * subCount]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)*subCount + int(uint64(v)>>uint(shift)) - subCount
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	shift := i/subCount - 1
	lo := uint64(i%subCount+subCount) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return bucketMid(i)
		}
	}
	return 0
}

// median of a small set of measurements (slice durations, set-up
// times); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
