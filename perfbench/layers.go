package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"faasm.dev/faasm/internal/kernels"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/wavm"
)

// genStats describes an open-loop load generator: how late it issued
// requests against their due times, and the most requests it had in flight.
type genStats struct {
	late           timing
	outstandingMax int
}

// spanLayers are the program's own span names whose self time the traced
// run reports ("state" aggregates every state.* span).
var spanLayers = []string{"sched.decide", "pool.acquire", "cold.start", "queue.wait", "state"}

// traceCollector gathers a traced pass's per-layer numbers: the program's
// spans (TraceSample 1), the tier probe and the state probe.
type traceCollector struct {
	start        time.Time
	cold0, warm0 int64
}

// startTraceCollector marks the start of the measured phase, dropping what
// the probes counted during set-up.
func startTraceCollector(d *deployment) *traceCollector {
	d.probe.take()
	d.state.take()
	return &traceCollector{start: time.Now(), cold0: d.inst.ColdStarts.Value(), warm0: d.inst.WarmStarts.Value()}
}

// traceFacts are the per-call quantities read off one trace.
type traceFacts struct {
	execs      int
	execDur    time.Duration
	execStart  int64
	queueWait  time.Duration // time parked in the durable queue (backlog)
	cold       bool
	submit     time.Duration
	submitted  bool
	statePulls int
	stateHits  int
}

// analyseTrace reads one trace: per-call facts plus the self time of each
// span, where a span's self time is its duration minus the part of it that
// other spans of the same trace nested inside it cover.
func analyseTrace(s obsv.TraceSnapshot, selfs map[string]*timing) traceFacts {
	var f traceFacts
	for i, sp := range s.Spans {
		switch {
		case sp.Name == "exec":
			f.execs++
			f.execDur += time.Duration(sp.Dur)
			if f.execStart == 0 || sp.Start < f.execStart {
				f.execStart = sp.Start
			}
		case sp.Name == "queue.wait" && sp.Key != "" && sp.Key != "slots":
			f.queueWait += time.Duration(sp.Dur)
		case sp.Name == "cold.start":
			f.cold = true
		case sp.Name == "queue.submit":
			f.submitted = true
			f.submit += time.Duration(sp.Dur)
		case sp.Name == "state.pull":
			f.statePulls++
			if sp.Bytes == 0 {
				f.stateHits++
			}
		case sp.Name == "state.read_all":
			f.statePulls++
		}
		layer := sp.Name
		if strings.HasPrefix(layer, "state.") {
			layer = "state"
		}
		if t, ok := selfs[layer]; ok {
			t.add(time.Duration(sp.Dur - nestedCover(s.Spans, i)))
		}
	}
	return f
}

// nestedCover is the length of the union of the intervals of spans nested
// inside span i (ties in extent go to the earlier-recorded span).
func nestedCover(spans []obsv.Span, i int) int64 {
	p := spans[i]
	pEnd := p.Start + p.Dur
	var iv [][2]int64
	for j, c := range spans {
		if j == i {
			continue
		}
		cEnd := c.Start + c.Dur
		if c.Start < p.Start || cEnd > pEnd {
			continue
		}
		if c.Dur == p.Dur && j < i {
			continue
		}
		iv = append(iv, [2]int64{c.Start, cEnd})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				covered += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		covered += curE - curS
	}
	return covered
}

// layers ends the measured phase and computes every per-layer metric of
// the traced pass.
func (c *traceCollector) layers(d *deployment, o *outcome) map[string]metric {
	end := time.Now()
	elapsed := end.Sub(c.start)
	tier := d.probe.take()
	st := d.state.take()
	cold := d.inst.ColdStarts.Value() - c.cold0
	calls := cold + d.inst.WarmStarts.Value() - c.warm0

	selfs := map[string]*timing{"exec": {}}
	for _, l := range spanLayers {
		selfs[l] = &timing{}
	}
	var overhead, coldLat, submit, qwait timing
	var pulls, hits int64
	// The tracer keeps the last traceBuffer traces; a workload that makes
	// more calls than that is represented by its latest ones.
	for _, s := range d.inst.Tracer().Slowest(traceBuffer) {
		if s.Start < c.start.UnixNano() || s.Start > end.UnixNano() {
			continue
		}
		f := analyseTrace(s, selfs)
		pulls += int64(f.statePulls)
		hits += int64(f.stateHits)
		if f.submitted {
			submit.add(f.submit)
		}
		if f.execs == 0 {
			continue
		}
		over := time.Duration(s.Dur) - f.execDur - f.queueWait
		overhead.add(over)
		if f.cold {
			coldLat.add(over)
		}
		if f.submitted {
			qwait.add(time.Duration(f.execStart - s.Start))
		}
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perCall := func(x float64) float64 {
		if calls == 0 {
			return 0
		}
		return x / float64(calls)
	}
	putTiming := func(prefix, nName string, t *timing, unit string, tail bool) {
		scale := us
		if unit == "ms" {
			scale = ms
		}
		p50, ok := t.quantile(0.5)
		if !ok {
			p50 = 0
		}
		put(prefix+"_p50", scale(p50), unit)
		if tail {
			_, tl, ok := t.tail()
			if !ok {
				tl = 0
			}
			put(prefix+"_tail", scale(tl), unit)
		}
		put(nName, float64(t.n()), "count")
	}

	put("frt.calls", float64(calls), "count")
	put("frt.cold_starts", float64(cold), "count")
	putTiming("frt.overhead_us", "frt.overhead_n", &overhead, "us", true)
	putTiming("frt.cold_us", "frt.cold_n", &coldLat, "us", false)
	putTiming("exec.self_us", "exec.n", selfs["exec"], "us", false)

	put("state.calls_per_call", perCall(float64(st.calls)), "calls/call")
	put("state.us_per_call", perCall(us(st.busy)), "us/call")
	put("state.read_bytes_per_call", perCall(float64(st.readBytes)), "B/call")
	put("state.write_bytes_per_call", perCall(float64(st.writeBytes)), "B/call")
	hitRatio := 1.0
	if pulls > 0 {
		hitRatio = float64(hits) / float64(pulls)
	}
	put("state.local_hit_ratio", hitRatio, "ratio")

	var kt timing
	kt.d = tier.durs
	put("kvs.ops_per_call", perCall(float64(tier.ops())), "ops/call")
	put("kvs.bytes_per_call", perCall(float64(tier.bytes)), "B/call")
	putTiming("kvs.op_us", "kvs.op_n", &kt, "us", true)
	put("kvs.busy_share", tier.busy.Seconds()/elapsed.Seconds(), "ratio")
	for k, name := range opKindNames {
		put("kvs.ops."+name, float64(tier.counts[k]), "count")
	}

	putTiming("queue.submit_us", "queue.submit_n", &submit, "us", true)
	putTiming("queue.wait_ms", "queue.wait_n", &qwait, "ms", true)
	kvsPerItem, execPerItem := 0.0, 0.0
	if o.queueItems > 0 {
		kvsPerItem = float64(tier.ops()) / float64(o.queueItems)
		execPerItem = float64(calls) / float64(o.queueItems)
	}
	put("queue.kvs_ops_per_item", kvsPerItem, "ops/item")
	put("queue.exec_per_item", execPerItem, "execs/item")
	put("queue.redeliveries", float64(o.redeliveries), "count")

	_, late, ok := o.gen.late.tail()
	if !ok {
		late = 0
	}
	put("gen.late_ms_tail", ms(late), "ms")
	put("gen.late_n", float64(o.gen.late.n()), "count")
	put("gen.outstanding_max", float64(o.gen.outstandingMax), "count")

	for _, l := range spanLayers {
		t := selfs[l]
		p50, ok := t.quantile(0.5)
		if !ok {
			p50 = 0
		}
		put("span."+l+".self_us_p50", us(p50), "us")
		put("span."+l+".n", float64(t.n()), "count")
	}

	for k, v := range wavmProbe(o) {
		m[k] = v
	}
	return m
}

// wavmProbeReps is how many times the probe instantiates and runs each
// kernel, so the instantiate median has enough samples.
const wavmProbeReps = 2

// wavmTolerance is TestSandboxMatchesNative's relative tolerance.
const wavmTolerance = 1e-9

// wavmProbe times wavm directly, outside frt: one Instantiate and one Call
// of "main" per kernel, next to its native twin, checking the checksums.
func wavmProbe(o *outcome) map[string]metric {
	var inst timing
	var steps uint64
	var callTime time.Duration
	var ratios []float64
	for _, k := range kernels.All() {
		mod, err := kernels.CompileKernel(k)
		if err != nil {
			o.fail("wavm probe: %v", err)
			continue
		}
		want := k.Native(k.N) // warm the native twin once
		for r := 0; r < wavmProbeReps; r++ {
			t0 := time.Now()
			vm, err := wavm.Instantiate(mod, nil)
			inst.add(time.Since(t0))
			if err != nil {
				o.fail("wavm probe: instantiate %s: %v", k.Name, err)
				break
			}
			t1 := time.Now()
			res, err := vm.Call("main")
			dWavm := time.Since(t1)
			if err != nil || len(res) != 1 {
				o.fail("wavm probe: %s: %v", k.Name, err)
				break
			}
			t2 := time.Now()
			k.Native(k.N)
			dNative := time.Since(t2)
			if !withinTolerance(wavm.DecodeF64(res[0]), want) {
				o.fail("wavm probe: %s checksum %v, native %v", k.Name, wavm.DecodeF64(res[0]), want)
			}
			if r == 0 {
				steps += vm.Steps
			}
			callTime += dWavm
			ratios = append(ratios, float64(dWavm)/math.Max(float64(dNative), 1))
		}
	}
	p50, ok := inst.quantile(0.5)
	if !ok {
		p50 = 0
	}
	nsPerStep := 0.0
	if steps > 0 {
		nsPerStep = float64(callTime.Nanoseconds()) / float64(steps*wavmProbeReps)
	}
	return map[string]metric{
		"wavm.steps":                {float64(steps), "steps"},
		"wavm.ns_per_step":          {nsPerStep, "ns/step"},
		"wavm.native_ratio_geomean": {geomean(ratios), "x"},
		"wavm.instantiate_us_p50":   {us(p50), "us"},
		"wavm.instantiate_n":        {float64(inst.n()), "count"},
	}
}

// withinTolerance applies TestSandboxMatchesNative's check.
func withinTolerance(got, want float64) bool {
	return math.Abs(got-want)/math.Max(math.Abs(want), 1) <= wavmTolerance
}
