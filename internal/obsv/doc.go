// Package obsv is the runtime's observability layer: end-to-end invocation
// tracing and a unified metrics registry with Prometheus-style exposition.
//
// # Tracing
//
// Every invocation may carry a Trace: a set of Spans covering the
// load-bearing segments of its life (queue wait, pool acquire, cold start,
// guest execution, forward hops, state transfers with byte counts). Traces
// are sampled — Tracer.Start returns nil for unsampled calls, and every
// Trace method is nil-receiver safe, so the steady-state warm path pays one
// atomic increment and one modulo for the sampling decision and nothing
// else. A forwarded call propagates its TraceID to the remote host, which
// Joins the trace: with a shared Tracer (the cluster harness) both hosts'
// spans land in one record; with per-host Tracers (real faasmd processes)
// each host retains its half under the same ID.
//
// Concurrency model: the sampling gate is one atomic counter. Sampled spans
// append to a per-trace slice under that trace's own mutex (contended only
// when two hosts touch one trace, i.e. a forward). Retention is a sharded
// map + FIFO eviction ring, touched once per sampled trace, never per call.
// Per-span-name aggregates (histogram + byte counters) are updated once per
// trace at Finish, off every call's critical path.
//
// # Metrics
//
// obsv is the repo's only measurement code. Counter is a monotonic atomic
// counter with no Reset; BillableMemory accumulates §6.1's GB-seconds.
// Registry holds named series, each with a fixed label set bound at
// registration: counters and gauges are read at scrape time through
// CounterFunc/GaugeFunc from the owner's own Counter or atomic, so writes
// are never double-counted; histograms use power-of-two buckets over int64
// observations (three atomic adds per observe, memory fixed regardless of
// sample count). Histogram.Quantile is the only quantile implementation:
// /status and Runtime.Stats read the registered exec histogram /metrics
// exports, and the experiment reports record into the same type.
// WritePrometheus renders the whole registry in the Prometheus text
// exposition format.
//
// Metric naming scheme (enforced by scripts/check-metrics.sh and documented
// in docs/ARCHITECTURE.md): faasm_<subsystem>_<noun>[_<unit>][_total], all
// lower snake case; counters end in _total, histograms of durations end in
// _seconds; label names are lower snake case.
package obsv
