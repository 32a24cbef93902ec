package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for percentiles: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// tailCeiling is the highest percentile the benchmark reports as a tail.
const tailCeiling = 0.99

// timing is one sample set of durations.
type timing struct {
	d      []time.Duration
	sorted bool
}

func (t *timing) add(d time.Duration) {
	t.d = append(t.d, d)
	t.sorted = false
}

func (t *timing) n() int { return len(t.d) }

func (t *timing) sort() {
	if !t.sorted {
		sort.Slice(t.d, func(i, j int) bool { return t.d[i] < t.d[j] })
		t.sorted = true
	}
}

// rankFor is the nearest-rank position (1-based) of quantile q in n samples.
func rankFor(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile returns the nearest-rank q-quantile, and whether at least
// minBeyond samples lie beyond it (the condition for reporting it).
func (t *timing) quantile(q float64) (time.Duration, bool) {
	n := len(t.d)
	if n == 0 {
		return 0, false
	}
	t.sort()
	k := rankFor(q, n)
	return t.d[k-1], n-k >= minBeyond
}

// tail returns the highest percentile at or below tailCeiling that has at
// least minBeyond samples beyond it, with the quantile it sits at. ok is
// false when no such percentile lies above the median (fewer than
// 2×minBeyond samples).
func (t *timing) tail() (q float64, d time.Duration, ok bool) {
	n := len(t.d)
	if n < 2*minBeyond {
		return 0, 0, false
	}
	t.sort()
	k := rankFor(tailCeiling, n)
	if n-k < minBeyond {
		k = n - minBeyond
	}
	return float64(k) / float64(n), t.d[k-1], true
}

// geomean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
