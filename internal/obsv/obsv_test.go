package obsv

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSamplingGate(t *testing.T) {
	tr := NewTracer(time.Now, 4, 64)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tr.Start("h", "fn") != nil {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling over 100 starts gave %d traces", sampled)
	}
	tr.SetSampleRate(-1)
	if tr.Start("h", "fn") != nil {
		t.Fatal("disabled tracer still sampled")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.RecordSpan("h", "exec", "", time.Now(), time.Millisecond, 0, false)
	if tr.ID() != 0 {
		t.Fatal("nil trace id != 0")
	}
	NewTracer(time.Now, 1, 8).Finish(nil)
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTracer(time.Now, 1, 64)
	tc := tr.Start("host-a", "fn")
	if tc == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	now := time.Now()
	tc.RecordSpan("host-a", "forward", "host-b", now, 2*time.Millisecond, 128, false)
	tc.RecordSpan("host-b", "exec", "fn", now.Add(time.Millisecond), time.Millisecond, 0, false)
	tc.RecordSpan("host-b", "state.pull", "key", now.Add(time.Millisecond), 500*time.Microsecond, 4096, false)
	tr.Finish(tc)

	snap, ok := tr.Get(tc.ID())
	if !ok {
		t.Fatalf("trace %d not retained", tc.ID())
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	hosts := map[string]bool{}
	var pullBytes int64
	for _, s := range snap.Spans {
		hosts[s.Host] = true
		if s.Name == "state.pull" {
			pullBytes = s.Bytes
		}
	}
	if !hosts["host-a"] || !hosts["host-b"] {
		t.Fatalf("spans missing a host: %v", hosts)
	}
	if pullBytes != 4096 {
		t.Fatalf("state.pull bytes = %d", pullBytes)
	}
	if snap.Dur <= 0 {
		t.Fatalf("snapshot duration = %d", snap.Dur)
	}
}

func TestJoinSharedAndSplit(t *testing.T) {
	shared := NewTracer(time.Now, 1, 64)
	origin := shared.Start("a", "fn")
	got, created := shared.Join(origin.ID(), "b", "fn")
	if created || got != origin {
		t.Fatalf("shared join created=%v got same=%v", created, got == origin)
	}

	remote := NewTracer(time.Now, 1, 64)
	half, created := remote.Join(origin.ID(), "b", "fn")
	if !created || half.ID() != origin.ID() {
		t.Fatalf("split join created=%v id=%d want %d", created, half.ID(), origin.ID())
	}
	if j, _ := remote.Join(0, "b", "fn"); j != nil {
		t.Fatal("join of id 0 must be nil")
	}
}

func TestTracerRetentionBounded(t *testing.T) {
	tr := NewTracer(time.Now, 1, 32)
	var first TraceID
	for i := 0; i < 1000; i++ {
		tc := tr.Start("h", "fn")
		if first == 0 {
			first = tc.ID()
		}
		tr.Finish(tc)
	}
	if _, ok := tr.Get(first); ok {
		t.Fatal("oldest trace survived 1000 inserts into a 32-trace buffer")
	}
	if got := len(tr.Slowest(10_000)); got > 32 {
		t.Fatalf("retained %d traces, buffer is 32", got)
	}
}

func TestSlowestOrdersByDuration(t *testing.T) {
	tr := NewTracer(time.Now, 1, 64)
	now := time.Now()
	for i, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond} {
		tc := tr.Start("h", "fn")
		tc.RecordSpan("h", "exec", "", now, d, 0, false)
		tr.Finish(tc)
		_ = i
	}
	slow := tr.Slowest(2)
	if len(slow) != 2 || slow[0].Dur < slow[1].Dur {
		t.Fatalf("slowest not ordered: %+v", slow)
	}
	if time.Duration(slow[0].Spans[0].Dur) != 5*time.Millisecond {
		t.Fatalf("slowest trace dur span = %d", slow[0].Spans[0].Dur)
	}
}

func TestSpanStatsAggregates(t *testing.T) {
	tr := NewTracer(time.Now, 1, 64)
	now := time.Now()
	for i := 0; i < 10; i++ {
		tc := tr.Start("h", "fn")
		tc.RecordSpan("h", "exec", "", now, time.Millisecond, 0, false)
		tc.RecordSpan("h", "state.pull", "k", now, 100*time.Microsecond, 1000, i == 0)
		tr.Finish(tc)
		tr.Finish(tc) // idempotent: no double counting
	}
	stats := tr.SpanStats()
	byName := map[string]SpanStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["exec"].Count != 10 {
		t.Fatalf("exec count = %d", byName["exec"].Count)
	}
	pull := byName["state.pull"]
	if pull.Bytes != 10_000 || pull.Fails != 1 {
		t.Fatalf("state.pull bytes=%d fails=%d", pull.Bytes, pull.Fails)
	}
	if p50 := byName["exec"].P50; p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("exec p50 = %v outside its power-of-two bucket", p50)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1000 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestBillableMemory(t *testing.T) {
	var b BillableMemory
	b.Charge(2e9, 3*time.Second) // 2 GB for 3s = 6 GB-s
	b.Charge(5e8, 2*time.Second) // 0.5 GB for 2s = 1 GB-s
	if got := b.GBSeconds(); got < 6.99 || got > 7.01 {
		t.Fatalf("GB-seconds = %v", got)
	}
	b.Reset()
	if b.GBSeconds() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramQuantilesAndBounds(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 || h.Sum() != 1000*1001/2 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	// p50 of 1..1000 is 500; bucket [256,511] or [512,1023] midpoints are
	// acceptable given power-of-two resolution.
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1023 {
		t.Fatalf("p50 = %d", p50)
	}
	h.Observe(-5) // clamps to 0
	if h.Quantile(0) != 0 {
		t.Fatalf("q0 = %d, want 0 bucket", h.Quantile(0))
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestRegistryCountersGaugesExposition(t *testing.T) {
	r := NewRegistry()
	var get, set Counter
	get.Add(3)
	set.Add(1)
	r.CounterFunc("faasm_test_ops_total", "ops", map[string]string{"host": "h0", "op": "get"}, get.Value)
	r.CounterFunc("faasm_test_ops_total", "ops", map[string]string{"host": "h0", "op": "set"}, set.Value)
	var backing int64 = 42
	r.CounterFunc("faasm_test_reads_total", "reads", nil, func() int64 { return backing })
	r.GaugeFunc("faasm_test_inflight", "inflight", map[string]string{"host": "h0"}, func() int64 { return 7 })
	r.GaugeFunc("faasm_test_keys", "keys", nil, func() int64 { return 9 })

	scrape := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := scrape()
	for _, want := range []string{
		"# TYPE faasm_test_ops_total counter",
		`faasm_test_ops_total{host="h0",op="get"} 3`,
		`faasm_test_ops_total{host="h0",op="set"} 1`,
		"faasm_test_reads_total 42",
		"# TYPE faasm_test_inflight gauge",
		`faasm_test_inflight{host="h0"} 7`,
		"faasm_test_keys 9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Label order does not matter: re-registering the same name and label
	// set replaces the series' function instead of adding a second series.
	r.CounterFunc("faasm_test_ops_total", "ops", map[string]string{"op": "get", "host": "h0"}, func() int64 { return 5 })
	out = scrape()
	if !strings.Contains(out, `faasm_test_ops_total{host="h0",op="get"} 5`) ||
		strings.Count(out, `op="get"`) != 1 {
		t.Fatalf("re-registration did not replace the series:\n%s", out)
	}
}

func TestRegistryHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("faasm_test_exec_seconds", "exec time", map[string]string{"host": "h0"})
	h.Observe(int64(time.Millisecond)) // 1e6 ns
	h.Observe(int64(time.Millisecond))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE faasm_test_exec_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `faasm_test_exec_seconds_count{host="h0"} 2`) {
		t.Fatalf("missing count:\n%s", out)
	}
	if !strings.Contains(out, "faasm_test_exec_seconds_sum") {
		t.Fatalf("missing sum:\n%s", out)
	}
	// The le bounds must be rendered in seconds (no raw nanosecond bound).
	if strings.Contains(out, `le="1048575"`) {
		t.Fatalf("nanosecond bucket bound leaked into a _seconds histogram:\n%s", out)
	}
}

func TestRegistryNamingConventionEnforced(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	zero := func() int64 { return 0 }
	mustPanic("bad prefix", func() { r.CounterFunc("http_requests_total", "", nil, zero) })
	mustPanic("counter without _total", func() { r.CounterFunc("faasm_test_ops", "", nil, zero) })
	mustPanic("bad label", func() { r.GaugeFunc("faasm_test_x", "", map[string]string{"BadLabel": "v"}, zero) })
	mustPanic("kind clash", func() {
		r.CounterFunc("faasm_test_clash_total", "", nil, zero)
		r.GaugeFunc("faasm_test_clash_total", "", nil, zero)
	})
}

func TestConcurrentTraceAndScrape(t *testing.T) {
	tr := NewTracer(time.Now, 1, 128)
	r := NewRegistry()
	h := r.Histogram("faasm_test_lat_seconds", "", nil)
	var c Counter
	r.CounterFunc("faasm_test_calls_total", "", nil, c.Value)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				tc := tr.Start("h", "fn")
				tc.RecordSpan("h", "exec", "", time.Now(), time.Microsecond, 0, false)
				tr.Finish(tc)
				h.Observe(int64(i))
				c.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			r.WritePrometheus(&b)
			tr.Slowest(5)
			tr.SpanStats()
		}
	}()
	writers.Wait()
	close(stop)
	<-scraperDone
	if c.Value() != 2000 {
		t.Fatalf("calls = %d", c.Value())
	}
}

func TestGetHugeIDDoesNotPanic(t *testing.T) {
	tr := NewTracer(time.Now, 1, 8)
	// Ids at or past 2^63 must index shards in uint64 space; a signed
	// conversion would go negative and panic.
	if _, ok := tr.Get(TraceID(^uint64(0))); ok {
		t.Fatal("unknown huge id reported present")
	}
}
