package main

import (
	"testing"
	"time"
)

func samples(n int) *timing {
	t := &timing{}
	for i := n; i >= 1; i-- { // unsorted on purpose
		t.add(time.Duration(i) * time.Millisecond)
	}
	return t
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   time.Duration
		report bool
	}{
		{20, 0.5, 10 * time.Millisecond, true},     // 10 beyond
		{19, 0.5, 10 * time.Millisecond, false},    // 9 beyond
		{1000, 0.99, 990 * time.Millisecond, true}, // 10 beyond
		{999, 0.99, 990 * time.Millisecond, false}, // 9 beyond
		{5000, 0.99, 4950 * time.Millisecond, true},
	}
	for _, c := range cases {
		got, ok := samples(c.n).quantile(c.q)
		if got != c.want || ok != c.report {
			t.Errorf("n=%d q=%g: got %v reportable=%v, want %v reportable=%v", c.n, c.q, got, ok, c.want, c.report)
		}
	}
	if _, ok := (&timing{}).quantile(0.5); ok {
		t.Error("empty sample set reported a median")
	}
}

func TestTailIsHighestReportablePercentile(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		value time.Duration
		ok    bool
	}{
		{5000, 0.99, 4950 * time.Millisecond, true}, // p99 has 50 beyond
		{1000, 0.99, 990 * time.Millisecond, true},  // p99 exactly reportable
		{999, 989.0 / 999, 989 * time.Millisecond, true},
		{100, 0.90, 90 * time.Millisecond, true},
		{20, 0.50, 10 * time.Millisecond, true},
		{19, 0, 0, false}, // nothing above the median is reportable
	}
	for _, c := range cases {
		tm := samples(c.n)
		q, v, ok := tm.tail()
		if ok != c.ok || v != c.value || (ok && q != c.q) {
			t.Errorf("n=%d: tail q=%g v=%v ok=%v, want q=%g v=%v ok=%v", c.n, q, v, ok, c.q, c.value, c.ok)
		}
		if ok {
			if beyond := c.n - int(v/time.Millisecond); beyond < minBeyond {
				t.Errorf("n=%d: tail has %d samples beyond it", c.n, beyond)
			}
		}
	}
}
