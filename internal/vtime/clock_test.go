package vtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(t0) {
		t.Fatal("real clock did not advance")
	}
}

func TestVirtualSleepWakesByDeadline(t *testing.T) {
	v := NewVirtual()
	woke := make([]atomic.Bool, 3)
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			v.Sleep(d)
			woke[i].Store(true)
		}(i, d)
	}
	for v.Pending() != 3 {
		time.Sleep(time.Millisecond)
	}
	// Stepped advances: each step releases exactly the sleepers whose
	// deadlines have passed.
	v.Advance(15 * time.Millisecond)
	waitTrue(t, &woke[1])
	if woke[0].Load() || woke[2].Load() {
		t.Fatal("later sleepers woke early")
	}
	v.Advance(10 * time.Millisecond)
	waitTrue(t, &woke[2])
	if woke[0].Load() {
		t.Fatal("latest sleeper woke early")
	}
	v.Advance(10 * time.Millisecond)
	waitTrue(t, &woke[0])
	wg.Wait()
}

func waitTrue(t *testing.T, b *atomic.Bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !b.Load() {
		if time.Now().After(deadline) {
			t.Fatal("sleeper never woke")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVirtualSleepZeroReturnsImmediately(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("zero sleep blocked")
	}
}

func TestVirtualAdvancePartial(t *testing.T) {
	v := NewVirtual()
	var woke atomic.Bool
	ready := make(chan struct{})
	go func() {
		close(ready)
		v.Sleep(100 * time.Millisecond)
		woke.Store(true)
	}()
	<-ready
	for v.Pending() != 1 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(50 * time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if woke.Load() {
		t.Fatal("woke before deadline")
	}
	v.Advance(60 * time.Millisecond)
	for !woke.Load() {
		time.Sleep(time.Millisecond)
	}
}

func TestVirtualNowMonotonicUnderAdvance(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	v.Advance(time.Minute)
	if got := v.Now().Sub(t0); got != time.Minute {
		t.Fatalf("advanced %v", got)
	}
	v.AdvanceTo(t0) // going backwards is a no-op
	if v.Now().Sub(t0) != time.Minute {
		t.Fatal("AdvanceTo moved time backwards")
	}
}

func TestRunUntilIdle(t *testing.T) {
	v := NewVirtual()
	var count atomic.Int32
	var wg sync.WaitGroup
	for i := 1; i <= 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.Sleep(time.Duration(i) * time.Second)
			count.Add(1)
		}(i)
	}
	for v.Pending() != 5 {
		time.Sleep(time.Millisecond)
	}
	v.RunUntilIdle(func() { time.Sleep(time.Millisecond) })
	wg.Wait()
	if count.Load() != 5 {
		t.Fatalf("woke %d of 5", count.Load())
	}
}

func TestNextDeadline(t *testing.T) {
	v := NewVirtual()
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("deadline with no sleepers")
	}
	go v.Sleep(time.Hour)
	for v.Pending() != 1 {
		time.Sleep(time.Millisecond)
	}
	d, ok := v.NextDeadline()
	if !ok || d.Sub(v.Now()) != time.Hour {
		t.Fatalf("deadline = %v ok=%v", d, ok)
	}
	v.Advance(2 * time.Hour)
}

func TestVirtualAfterFiresOnAdvance(t *testing.T) {
	v := NewVirtual()
	tm := v.After(10 * time.Millisecond)
	if v.Pending() != 1 {
		t.Fatalf("pending = %d, want the armed timer", v.Pending())
	}
	v.Advance(5 * time.Millisecond)
	select {
	case <-tm.C:
		t.Fatal("fired before its deadline")
	default:
	}
	want := v.Now().Add(5 * time.Millisecond)
	v.Advance(10 * time.Millisecond)
	select {
	case at := <-tm.C:
		if !at.Equal(want) {
			t.Fatalf("fired at %v, want its deadline %v", at, want)
		}
	default:
		t.Fatal("Advance past the deadline did not fire the timer")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported a cancel")
	}
	if v.Pending() != 0 {
		t.Fatalf("pending after firing = %d", v.Pending())
	}
	select {
	case <-v.After(0).C:
	default:
		t.Fatal("zero-duration timer not fired at once")
	}
}

// A wait abandoned because a wake-up won the select must leave nothing
// behind: no pending waiter for Advance or RunUntilIdle, and no goroutine.
func TestAfterStoppedByWakeLeavesNothing(t *testing.T) {
	v := NewVirtual()
	for name, c := range map[string]Clock{"real": Real{}, "scaled": NewScaled(10), "virtual": v} {
		before := runtime.NumGoroutine()
		wake := make(chan struct{}, 1)
		for i := 0; i < 100; i++ {
			wake <- struct{}{}
			tm := c.After(time.Hour)
			select {
			case <-wake:
				if !tm.Stop() {
					t.Fatalf("%s: Stop of an unfired timer reported no cancel", name)
				}
			case <-tm.C:
				t.Fatalf("%s: hour-long timer fired", name)
			}
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines after 100 abandoned waits, %d before", name, n, before)
		}
	}
	if n := v.Pending(); n != 0 {
		t.Fatalf("stopped timers still pending: %d", n)
	}
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("stopped timer still holds a deadline")
	}
	v.RunUntilIdle(nil) // returns at once: nothing armed
}

func TestRealAndScaledAfterFire(t *testing.T) {
	for name, c := range map[string]Clock{"real": Real{}, "scaled": NewScaled(100)} {
		t0 := time.Now()
		select {
		case <-c.After(100 * time.Millisecond).C:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: timer never fired", name)
		}
		if name == "scaled" && time.Since(t0) >= 100*time.Millisecond {
			t.Fatalf("scaled timer took %v of wall time for 100ms at 100x", time.Since(t0))
		}
	}
}

func TestVirtualStopKeepsOtherWaitersOrdered(t *testing.T) {
	v := NewVirtual()
	a := v.After(10 * time.Millisecond)
	b := v.After(20 * time.Millisecond)
	c := v.After(30 * time.Millisecond)
	if !b.Stop() {
		t.Fatal("stop of armed timer failed")
	}
	v.Advance(25 * time.Millisecond)
	<-a.C
	select {
	case <-b.C:
		t.Fatal("stopped timer fired")
	case <-c.C:
		t.Fatal("later timer fired early")
	default:
	}
	v.Advance(10 * time.Millisecond)
	<-c.C
}
