// Package vtime provides the clock abstraction used throughout the runtime.
//
// Real deployments use the wall clock. The cluster simulator uses a
// deterministic event-driven virtual clock so that macro experiments
// (training runs, latency distributions, cold-start storms) are reproducible
// and fast regardless of the host machine.
package vtime

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts time for the runtime and the simulator.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d of this clock's time.
	Sleep(d time.Duration)
	// After arms a cancellable timer that fires once d of this clock's
	// time has passed (at once for d <= 0).
	After(d time.Duration) *Timer
}

// Timer is a one-shot wait on a Clock. C receives the firing time once.
// Stop abandons the wait: a select that stops waiting on C (a wake-up won
// the race) calls Stop and leaves neither a goroutine nor, on a Virtual
// clock, a pending waiter behind.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// Stop cancels the timer, reporting whether it did so before it fired.
func (t *Timer) Stop() bool { return t.stop() }

// wallTimer wraps a runtime timer, which owns no goroutine.
func wallTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now returns the wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Sleep blocks for wall-clock duration d.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After arms a wall-clock timer for d.
func (Real) After(d time.Duration) *Timer { return wallTimer(d) }

// Virtual is a deterministic discrete-event clock. Goroutines that sleep on a
// Virtual clock are suspended until the simulation driver advances time past
// their deadline. Virtual time only moves when Advance or Run is called.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64
}

// NewVirtual returns a virtual clock starting at the zero time plus one hour,
// so that subtracting small durations never underflows.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Unix(0, 0).Add(time.Hour)}
}

// waiter is one Sleep or After on a Virtual clock. index is its position
// in the heap (-1 once fired or stopped), so Stop can remove it.
type waiter struct {
	deadline time.Time
	seq      int64
	index    int
	ch       chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waiterHeap) Push(x interface{}) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep blocks until the virtual clock advances past now+d. A non-positive
// duration returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.arm(d).ch
}

// After arms a timer that fires when the clock advances past now+d. Until
// it fires or is stopped it counts in Pending and is one of the deadlines
// RunUntilIdle advances to, exactly like a Sleep; Stop removes it from
// both.
func (v *Virtual) After(d time.Duration) *Timer {
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- v.Now()
		return &Timer{C: ch, stop: func() bool { return false }}
	}
	w := v.arm(d)
	return &Timer{C: w.ch, stop: func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if w.index < 0 {
			return false
		}
		heap.Remove(&v.waiters, w.index)
		return true
	}}
}

func (v *Virtual) arm(d time.Duration) *waiter {
	v.mu.Lock()
	defer v.mu.Unlock()
	w := &waiter{deadline: v.now.Add(d), seq: v.seq, ch: make(chan time.Time, 1)}
	v.seq++
	heap.Push(&v.waiters, w)
	return w
}

// Advance moves virtual time forward by d, waking every sleeper whose
// deadline has passed, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.advanceToLocked(target)
	v.mu.Unlock()
}

// AdvanceTo moves virtual time to t if t is later than the current time.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	v.advanceToLocked(t)
	v.mu.Unlock()
}

func (v *Virtual) advanceToLocked(target time.Time) {
	for v.waiters.Len() > 0 {
		next := v.waiters[0]
		if next.deadline.After(target) {
			break
		}
		heap.Pop(&v.waiters)
		if next.deadline.After(v.now) {
			v.now = next.deadline
		}
		next.ch <- next.deadline
	}
	if target.After(v.now) {
		v.now = target
	}
}

// NextDeadline reports the earliest pending sleeper deadline, if any.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.waiters.Len() == 0 {
		return time.Time{}, false
	}
	return v.waiters[0].deadline, true
}

// Pending reports the number of goroutines blocked in Sleep plus the armed
// After timers not yet fired or stopped.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.waiters.Len()
}

// RunUntilIdle repeatedly advances to the next sleeper deadline until no
// sleepers remain. Armed timers count as sleepers, so a loop that re-arms a
// timer each time one fires keeps RunUntilIdle advancing; a stopped timer
// no longer holds it. The settle callback, if non-nil, is invoked after each
// advance to let the caller yield to worker goroutines (e.g. runtime.Gosched
// loops); RunUntilIdle already yields between steps.
func (v *Virtual) RunUntilIdle(settle func()) {
	for {
		t, ok := v.NextDeadline()
		if !ok {
			return
		}
		v.AdvanceTo(t)
		if settle != nil {
			settle()
		}
	}
}
