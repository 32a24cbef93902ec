// Command perfbench is the repository benchmark: it runs one workload
// against a deployment built the way cmd/faasmd builds its own — one
// frt.Instance host in this process, attached through shardkvs.AttachRemote
// to a global tier of faasmd -kvs shard children on loopback TCP — checks
// every output, and prints the metrics named in BENCHMARK.json.
//
//	perfbench --workload train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the host runs untraced (TraceSample < 0, no wrappers) and
// the last stdout line carries the end-to-end metrics. With --trace 1 the
// workload runs twice, untraced and then traced (TraceSample 1, tier and
// guest wrappers installed), and the last line carries the per-layer
// metrics, including the tracing overhead between the two passes.
// METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// An untraced run builds its deployment several times and reports the
// median set-up time as setup_s; the last deployment is measured. It sets
// up at least minSetupReps times, and more, up to maxSetupReps, until
// setupBudget has been spent, so that quick set-ups get a steadier median.
const (
	minSetupReps = 5
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line's shape.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one measured pass of a workload produced.
type outcome struct {
	attempted int
	failed    int      // failed, refused or wrong-output operations
	problems  []string // failed correctness checks; any makes the run incorrect

	lat         timing  // the workload's user-visible latency samples
	rate        float64 // calls_per_s
	memLive     float64 // mem_live_mb
	headline    float64 // the value trace.overhead_ratio compares
	lowerBetter bool    // direction of headline

	// rows are extra human-readable lines (workload-specific headline names).
	rows []string
	// layer holds the traced pass's per-layer metrics.
	layer map[string]metric
	// gen describes the load generator (open-loop workloads).
	gen    genStats
	setups int // set-ups the pass made

	// queueItems counts calls accepted by the durable queue; redeliveries
	// counts the queue's repeated claims of them.
	queueItems   int
	redeliveries int64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload. Inputs are generated from the seed
// when the workload is built; setup and measure run against a deployment.
type workload interface {
	// host returns the runtime options the workload needs.
	host() hostOptions
	// setup registers functions, seeds the tier and warms up.
	setup(d *deployment) error
	// measure runs the measured phase for the given duration.
	measure(d *deployment, seconds float64, mem *memMeter, o *outcome) error
}

type workloadFactory func(seed int64, seconds float64) (workload, error)

var workloads = map[string]workloadFactory{
	"serve":   newServe,
	"train":   newTrain,
	"async":   newAsync,
	"kernels": newKernels,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve, train, async or kernels")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	faasmd := fs.String("faasmd", "", "faasmd binary (default: next to this executable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	factory, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	bin, err := faasmdPath(*faasmd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	// Kill the shard children on interrupt; every other exit path closes
	// its deployment on the way out.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sigs)
		close(done)
	}()
	go func() {
		select {
		case <-sigs:
			killAllChildren()
			os.Exit(130)
		case <-done:
		}
	}()

	rep, err := runWorkload(*name, factory, *seed, *seconds, *trace == 1, bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload runs the untraced pass, and the traced pass when asked, and
// assembles the result line.
func runWorkload(name string, factory workloadFactory, seed int64, seconds float64, traced bool, faasmd string) (*report, error) {
	w, err := factory(seed, seconds)
	if err != nil {
		return nil, err
	}
	// Set-up time is reported by untraced runs only; a --trace 1 run sets
	// up once per pass.
	plain, setup, err := runPass(w, seconds, false, !traced, faasmd)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	outs := []*outcome{plain}
	printPass(name, "untraced", plain, setup)
	if !traced {
		p50, ok50 := plain.lat.quantile(0.5)
		_, tail, okTail := plain.lat.tail()
		if !ok50 || !okTail {
			plain.fail("only %d latency samples: too few for a median and a tail", plain.lat.n())
		}
		rep.Metrics["setup_s"] = metric{setup.Seconds(), "s"}
		rep.Metrics["lat_p50_ms"] = metric{ms(p50), "ms"}
		rep.Metrics["lat_tail_ms"] = metric{ms(tail), "ms"}
		rep.Metrics["calls_per_s"] = metric{plain.rate, "1/s"}
		rep.Metrics["mem_live_mb"] = metric{plain.memLive, "MB"}
	} else {
		tr, _, err := runPass(w, seconds, true, false, faasmd)
		if err != nil {
			return nil, err
		}
		printPass(name, "traced", tr, 0)
		outs = append(outs, tr)
		for k, v := range tr.layer {
			rep.Metrics[k] = v
		}
		ratio := 0.0
		if plain.headline > 0 && tr.headline > 0 {
			if plain.lowerBetter {
				ratio = tr.headline / plain.headline
			} else {
				ratio = plain.headline / tr.headline
			}
		}
		rep.Metrics["trace.overhead_ratio"] = metric{ratio, "x"}
	}
	rep.Correct = true
	for _, o := range outs {
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
			rep.Correct = false
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	if rep.Attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	return rep, nil
}

// runPass builds the deployment (repeatedly when timeSetup is set; see
// minSetupReps), measures the last one, and tears down. It returns the
// median set-up time.
func runPass(w workload, seconds float64, traced, timeSetup bool, faasmd string) (*outcome, time.Duration, error) {
	opts := w.host()
	opts.traced = traced
	var setups []time.Duration
	var d *deployment
	defer func() { d.close() }()
	// The baseline precedes every set-up: a closed host's scheduler
	// heartbeat can keep it reachable for a lease period after Shutdown.
	mem := &memMeter{}
	mem.baseline()
	var spent time.Duration
	for i := 0; ; i++ {
		start := time.Now()
		var err error
		d, err = deploy(faasmd, opts)
		if err != nil {
			return nil, 0, err
		}
		if err := w.setup(d); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		spent += setups[i]
		n := i + 1
		if !timeSetup || n >= maxSetupReps || n >= minSetupReps && spent >= setupBudget {
			break
		}
		d.close()
		d = nil
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	o := &outcome{setups: len(setups)}
	var tc *traceCollector
	if traced {
		tc = startTraceCollector(d)
	}
	if err := w.measure(d, seconds, mem, o); err != nil {
		return nil, 0, err
	}
	if traced {
		o.layer = tc.layers(d, o)
	}
	return o, setups[len(setups)/2], nil
}

// memMeter measures live heap after a forced collection, relative to a
// baseline taken before the measured host existed.
type memMeter struct{ base uint64 }

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (m *memMeter) baseline() { m.base = liveHeap() }

// mark returns the live heap above the baseline in MB.
func (m *memMeter) mark() float64 {
	return (float64(liveHeap()) - float64(m.base)) / (1 << 20)
}

// printPass prints the pass's headline numbers, by the names METRICS.md
// uses, before the result line.
func printPass(name, pass string, o *outcome, setup time.Duration) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s)\n", name, pass)
	if setup > 0 {
		fmt.Fprintf(&b, "#   setup_s        %.4f s (median of %d set-ups)\n", setup.Seconds(), o.setups)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(&b, "#   fail_ratio     %.6f (%d of %d)\n", ratio, o.failed, o.attempted)
	if p50, ok := o.lat.quantile(0.5); ok {
		fmt.Fprintf(&b, "#   lat_p50_ms     %.4f ms (n=%d)\n", ms(p50), o.lat.n())
	}
	if q, tail, ok := o.lat.tail(); ok {
		label := fmt.Sprintf("lat_p%g_ms", roundPct(q))
		fmt.Fprintf(&b, "#   %-14s %.4f ms (tail; n=%d)\n", label, ms(tail), o.lat.n())
	}
	for _, r := range o.rows {
		fmt.Fprintf(&b, "#   %s\n", r)
	}
	if o.layer == nil {
		fmt.Fprintf(&b, "#   mem_live_mb    %.3f MB\n", o.memLive)
	}
	fmt.Print(b.String())
}

func roundPct(q float64) float64 {
	p := q * 100
	return float64(int(p*10+0.5)) / 10
}
