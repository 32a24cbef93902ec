package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
	"faasm.dev/faasm/internal/obsv"
)

// InvokeScale measures the per-host invocation hot path this repo makes
// concurrent beyond the paper: closed-loop warm calls to a no-op function
// from 1/4/16 goroutines, reporting calls/sec and p50/p99 latency. The
// pre-PR pipeline serialised every call on one instance mutex (taken 3–5×
// per call), a single-cond call table whose completion broadcast woke every
// waiter, and an inline Proto-Faaslet reset on the caller's critical path;
// the rebuilt pipeline is lock-free on definition lookup, per-function on
// pool acquire/release, resets off the critical path, and — the second
// section — performs zero global-tier operations per steady-state warm
// call (the scheduler serves the warm check from local counters and the
// peer set from a TTL cache, Cloudburst-style).
func InvokeScale(opts Options) *Report {
	callsPerG := 20_000
	if opts.Quick {
		callsPerG = 2_000
	}
	gs := []int{1, 4, 16}

	r := &Report{
		ID:     "invoke-scale",
		Title:  "Invocation hot path: parallel warm-call throughput",
		Header: []string{"section", "config", "calls/s", "speedup", "p50", "p99"},
	}

	var baseline float64
	for _, g := range gs {
		callsPerSec, p50, p99, err := measureWarmInvoke(g, callsPerG)
		if err != nil {
			r.Note("%d goroutines: %v", g, err)
			continue
		}
		speedup := "-"
		if g == gs[0] {
			baseline = callsPerSec
		} else if baseline > 0 {
			speedup = fmt.Sprintf("%.2fx", callsPerSec/baseline)
		}
		r.Add("throughput", fmt.Sprintf("%d goroutine(s)", g),
			fmt.Sprintf("%.0f", callsPerSec), speedup, fmtDur(p50), fmtDur(p99))
	}

	// Span breakdown: every call traced (sample rate 1), then the warm
	// path decomposed by span from the tracer's aggregates — where a warm
	// invocation's time actually goes.
	if rep, err := measureSpanBreakdown(callsPerG / 4); err != nil {
		r.Note("span section: %v", err)
	} else {
		for _, st := range rep {
			r.Add("spans", st.Name, fmt.Sprintf("%d calls", st.Count), "-",
				fmtDur(st.P50), fmtDur(st.P99))
		}
	}

	// Scheduler write-through accounting: after the first call cold-starts
	// and advertises, steady-state warm invocations must perform zero
	// global-tier operations.
	store := kvstest.NewCountingStore(kvs.NewEngine())
	inst := frt.New(frt.Config{Host: "ops-host", Store: store})
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	warmCalls := callsPerG / 2
	if _, _, err := inst.Call("noop", nil); err != nil {
		r.Note("ops section: %v", err)
	} else {
		coldOps := store.Ops()
		store.ResetOps()
		for k := 0; k < warmCalls; k++ {
			inst.Call("noop", nil)
		}
		warmOps := store.Ops()
		r.Add("global-ops", "cold start + advertise", fmt.Sprintf("%d ops", coldOps), "-", "-", "-")
		r.Add("global-ops", fmt.Sprintf("%d warm calls", warmCalls), fmt.Sprintf("%d ops", warmOps),
			"-", "-", "-")
		inst.Shutdown()
	}

	r.Note("throughput: closed-loop no-op calls per goroutine count, pool prewarmed to 2x goroutines; p50/p99 are per-call response latencies at power-of-two bucket resolution (reset excluded — it runs off the critical path)")
	r.Note("spans: per-span latency aggregates over fully traced warm calls (trace sample rate 1); throughput rows above run at the default 1-in-%d sampling", obsv.DefaultSampleRate)
	r.Note("global-ops: KVS operations counted through a store wrapper; steady-state warm calls must show 0 ops — the scheduler runs on local warm counters and a TTL-cached peer set")
	r.Note("GOMAXPROCS=%d; on one core the gain is the removed per-call work (dispatch goroutine, call-table broadcast, inline reset); with more cores the per-function pools also remove lock contention", runtime.GOMAXPROCS(0))
	return r
}

// measureSpanBreakdown runs calls fully traced warm invocations on a fresh
// instance and returns the tracer's per-span aggregates, sorted by total
// time descending so the dominant phase leads the table.
func measureSpanBreakdown(calls int) ([]obsv.SpanStat, error) {
	inst := frt.New(frt.Config{Host: "span-host", TraceSample: 1})
	defer inst.Shutdown()
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	for k := 0; k < calls; k++ {
		if _, _, err := inst.Call("noop", nil); err != nil {
			return nil, err
		}
	}
	stats := inst.Tracer().SpanStats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Total > stats[j].Total })
	return stats, nil
}

// measureWarmInvoke drives closed-loop warm calls from g goroutines against
// a prewarmed instance and returns calls/sec plus p50/p99 latency.
func measureWarmInvoke(g, callsPerG int) (float64, time.Duration, time.Duration, error) {
	inst := frt.New(frt.Config{Host: "bench-host", PoolCap: 256})
	defer inst.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{}, 2*g)
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) {
		if len(ctx.Input()) > 0 {
			started <- struct{}{}
			<-gate
		}
		return 0, nil
	})
	// Prewarm 2g Faaslets by holding 2g calls open simultaneously.
	warm := 2 * g
	var pre sync.WaitGroup
	var preErr error
	var preMu sync.Mutex
	for k := 0; k < warm; k++ {
		pre.Add(1)
		go func() {
			defer pre.Done()
			if _, _, err := inst.Call("noop", []byte("w")); err != nil {
				preMu.Lock()
				preErr = err
				preMu.Unlock()
			}
		}()
	}
	for k := 0; k < warm; k++ {
		<-started
	}
	close(gate)
	pre.Wait()
	if preErr != nil {
		return 0, 0, 0, preErr
	}

	var lat obsv.Histogram
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < callsPerG; k++ {
				t0 := time.Now()
				if _, _, err := inst.Call("noop", nil); err != nil {
					return
				}
				lat.Observe(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if lat.Count() == 0 {
		return 0, 0, 0, fmt.Errorf("no calls completed")
	}
	return float64(lat.Count()) / elapsed.Seconds(), quantile(&lat, 0.5), quantile(&lat, 0.99), nil
}
