package obsv

import (
	"sync"
	"time"
)

// BillableMemory accumulates GB-seconds: the product of each instance's peak
// memory footprint and its runtime, as billed by serverless platforms (§6.1).
type BillableMemory struct {
	mu        sync.Mutex
	gbSeconds float64
}

// Charge adds one instance execution: peakBytes held for dur.
func (b *BillableMemory) Charge(peakBytes int64, dur time.Duration) {
	gb := float64(peakBytes) / 1e9
	b.mu.Lock()
	b.gbSeconds += gb * dur.Seconds()
	b.mu.Unlock()
}

// GBSeconds returns the accumulated billable memory.
func (b *BillableMemory) GBSeconds() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gbSeconds
}

// Reset zeroes the accumulator.
func (b *BillableMemory) Reset() {
	b.mu.Lock()
	b.gbSeconds = 0
	b.mu.Unlock()
}
