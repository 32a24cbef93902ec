package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/queue"
)

// async: the durable queue, in cycles of two phases. A burst builds a deep
// backlog of independent calls and drains it (calls_per_s is the median
// drain rate of all bursts but the first); then a sparse open-loop trickle of two-stage ChainThen chains
// measures the latency from submit to the chain's terminal result, which
// the consumers' poll cadence bounds from below. Repeating the cycle varies
// the consumers' poll phases, which set the trickle's latency.
type async struct {
	burst     [][]byte
	trickle   [][]time.Duration // per cycle: chain due times from the phase start
	trickleIn [][][]byte
}

const (
	asyncBurstFn = "aq-work"
	asyncHeadFn  = "aq-a"
	asyncTailFn  = "aq-b"
	asyncCycles  = 6
	asyncBurst   = 1000
	// asyncDepth raises the queue's depth cap above the burst.
	asyncDepth       = 4096
	asyncTrickleRate = 60 // chains per second
	// asyncTrickleShare is the share of the run spent on the trickles.
	asyncTrickleShare = 0.5
	asyncAwaitTimeout = 60 * time.Second
	// resultPoll is how often the benchmark's client looks for a result
	// while timing a chain: fine enough that the timing is the result's
	// arrival, not the client's polling.
	resultPoll = time.Millisecond
)

// stage is the guests' deterministic transformation: an FNV-64 digest of
// the input appended to it, so every output is checkable host-side and a
// chain's second stage proves it consumed the first stage's output.
func stage(in []byte) []byte {
	h := fnv.New64a()
	h.Write(in)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), in...), h.Sum64())
}

func stageGuest(api hostapi.API) (int32, error) {
	api.WriteOutput(stage(api.Input()))
	return 0, nil
}

func newAsync(seed int64, seconds float64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	a := &async{}
	input := func() []byte {
		b := make([]byte, 64)
		rng.Read(b)
		return b
	}
	for i := 0; i < asyncBurst; i++ {
		a.burst = append(a.burst, input())
	}
	dur := time.Duration(seconds * asyncTrickleShare / asyncCycles * float64(time.Second))
	for c := 0; c < asyncCycles; c++ {
		var dues []time.Duration
		var ins [][]byte
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / asyncTrickleRate * float64(time.Second))
			if at >= dur {
				break
			}
			dues = append(dues, at)
			ins = append(ins, input())
		}
		a.trickle = append(a.trickle, dues)
		a.trickleIn = append(a.trickleIn, ins)
	}
	return a, nil
}

func (a *async) host() hostOptions {
	return hostOptions{asyncQueue: true, queueDepth: asyncDepth}
}

func (a *async) setup(d *deployment) error {
	for _, fn := range []string{asyncBurstFn, asyncHeadFn, asyncTailFn} {
		register(d, fn, stageGuest)
	}
	if err := d.inst.ChainThen(asyncHeadFn, asyncTailFn); err != nil {
		return err
	}
	// Warm-up: one burst call and one chain through the queue.
	warm := []byte("warm-up")
	id, err := d.inst.InvokeAsync(asyncBurstFn, warm)
	if err != nil {
		return err
	}
	client := resultClient(d)
	rec, err := awaitResult(client, id)
	if err != nil || rec.Status != mbus.CallSucceeded {
		return fmt.Errorf("warm-up: %v %v", rec.Status, err)
	}
	if id, err = d.inst.InvokeAsync(asyncHeadFn, warm); err != nil {
		return err
	}
	if _, err := a.awaitChain(client, id, warm, time.Now()); err != nil {
		return fmt.Errorf("warm-up chain: %w", err)
	}
	return drained(client)
}

// drained waits for every queue's depth to return to zero.
func drained(client *queue.Queue) error {
	deadline := time.Now().Add(5 * time.Second)
	for _, fn := range []string{asyncBurstFn, asyncHeadFn, asyncTailFn} {
		for {
			n, err := client.Depth(fn)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("queue %s depth stuck at %d", fn, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (a *async) measure(d *deployment, seconds float64, mem *memMeter, o *outcome) error {
	before := d.inst.Queue().Stats()
	client := resultClient(d)
	var rates []float64
	for c := 0; c < asyncCycles; c++ {
		rate := a.runBurst(d, client, o)
		if c > 0 { // the first burst grows the host's tier connection pools
			rates = append(rates, rate)
		}
		a.runTrickle(d, client, c, o)
	}
	sort.Float64s(rates)
	o.rate = rates[len(rates)/2]
	o.headline, o.lowerBetter = o.rate, false
	o.memLive = mem.mark()

	// A redelivery that finds the result already written only acks, so
	// redeliveries are reported (queue.redeliveries), not failed; the
	// traced run's queue.exec_per_item shows any repeated execution.
	st := d.inst.Queue().Stats()
	o.redeliveries = st.Redelivered - before.Redelivered
	if n := st.DeadLettered - before.DeadLettered; n != 0 {
		o.fail("%d calls dead-lettered", n)
	}
	return nil
}

// runBurst submits the whole burst, awaits every call in submission order,
// and returns the drain rate: accepted calls over the time from the first
// submit to the last result.
func (a *async) runBurst(d *deployment, client *queue.Queue, o *outcome) float64 {
	start := time.Now()
	ids := make([]uint64, 0, len(a.burst))
	want := make([][]byte, 0, len(a.burst))
	for _, in := range a.burst {
		o.attempted++
		id, err := d.inst.InvokeAsync(asyncBurstFn, in)
		if err != nil {
			o.failed++
			if !errors.Is(err, queue.ErrQueueFull) {
				o.fail("submit: %v", err)
			}
			continue
		}
		ids = append(ids, id)
		want = append(want, stage(in))
	}
	submitted := time.Since(start)
	for i, id := range ids {
		rec, err := awaitResult(client, id)
		if err != nil || rec.Status != mbus.CallSucceeded || !bytes.Equal(rec.Output, want[i]) {
			o.failed++
			o.fail("burst call %d: status %v err %v", id, rec.Status, err)
		}
	}
	drain := time.Since(start)
	o.queueItems += len(ids)
	rate := float64(len(ids)) / drain.Seconds()
	o.rows = append(o.rows, fmt.Sprintf("burst          %d calls: submitted in %.3f s, drained at %.1f calls/s",
		len(ids), submitted.Seconds(), rate))
	if err := drained(client); err != nil {
		o.fail("after burst: %v", err)
	}
	return rate
}

// runTrickle issues one cycle's chains at their due times and times each to
// its terminal result.
func (a *async) runTrickle(d *deployment, client *queue.Queue, cycle int, o *outcome) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	inflight := 0
	start := time.Now()
	for i, at := range a.trickle[cycle] {
		due := start.Add(at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		o.gen.late.add(time.Since(due))
		in := a.trickleIn[cycle][i]
		o.attempted++
		id, err := d.inst.InvokeAsync(asyncHeadFn, in)
		if err != nil {
			o.failed++
			o.fail("chain submit: %v", err)
			continue
		}
		mu.Lock()
		inflight++
		o.gen.outstandingMax = max(o.gen.outstandingMax, inflight)
		mu.Unlock()
		wg.Add(1)
		go func(id uint64, in []byte, due time.Time) {
			defer wg.Done()
			lat, err := a.awaitChain(client, id, in, due)
			mu.Lock()
			defer mu.Unlock()
			inflight--
			if err != nil {
				o.failed++
				o.fail("chain %d: %v", id, err)
				return
			}
			o.lat.add(lat)
		}(id, in, due)
	}
	wg.Wait()
	o.queueItems += 2 * len(a.trickle[cycle])
	if err := drained(client); err != nil {
		o.fail("after trickle: %v", err)
	}
}

// resultClient is the benchmark's client view of the queue: a consumer-less
// handle over the tier that reads results the way faasmd's GET /call/<id>
// does. It reads the ring directly, so its polls bypass the tier probe.
func resultClient(d *deployment) *queue.Queue {
	return queue.New(queue.Config{Store: d.ring}, nil)
}

// awaitResult polls for a call's terminal record every resultPoll.
//
// It polls Result rather than calling Await: Await reads the result and
// then the pending item, so a call that completes between the two reads
// is reported as ErrUnknownCall although its result is there on the next
// read.
func awaitResult(client *queue.Queue, id uint64) (mbus.CallRecord, error) {
	deadline := time.Now().Add(asyncAwaitTimeout)
	for {
		rec, ok, err := client.Result(id)
		if err != nil {
			return rec, err
		}
		if ok {
			return rec, nil
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("call %d: no result after %v", id, asyncAwaitTimeout)
		}
		time.Sleep(resultPoll)
	}
}

// awaitChain waits for a chain's head and tail results and checks output
// and lineage, returning the latency from the chain's due time.
func (a *async) awaitChain(client *queue.Queue, id uint64, in []byte, due time.Time) (time.Duration, error) {
	head, err := awaitResult(client, id)
	if err != nil {
		return 0, err
	}
	if head.Status != mbus.CallSucceeded || head.ChildID == 0 {
		return 0, fmt.Errorf("head %v with child %d", head.Status, head.ChildID)
	}
	tail, err := awaitResult(client, head.ChildID)
	if err != nil {
		return 0, err
	}
	lat := time.Since(due)
	if tail.Status != mbus.CallSucceeded || tail.ParentID != id {
		return 0, fmt.Errorf("tail %v with parent %d", tail.Status, tail.ParentID)
	}
	if !bytes.Equal(tail.Output, stage(stage(in))) {
		return 0, errors.New("chain output mismatch")
	}
	return lat, nil
}
