package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/vtime"
)

// countingStore counts the tier ops issued through it and the key and value
// bytes they carry in either direction. A non-zero delay slows every op,
// widening the windows in which consumers on different hosts interleave.
type countingStore struct {
	kvs.Store
	delay      time.Duration
	ops, bytes atomic.Int64
}

func (c *countingStore) op(key string, n int) {
	c.ops.Add(1)
	c.bytes.Add(int64(len(key) + n))
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
}

func (c *countingStore) Get(key string) ([]byte, error) {
	v, err := c.Store.Get(key)
	c.op(key, len(v))
	return v, err
}
func (c *countingStore) Set(key string, val []byte) error {
	c.op(key, len(val))
	return c.Store.Set(key, val)
}
func (c *countingStore) GetRange(key string, off, n int) ([]byte, error) {
	v, err := c.Store.GetRange(key, off, n)
	c.op(key, len(v))
	return v, err
}
func (c *countingStore) SetRange(key string, off int, val []byte) error {
	c.op(key, len(val))
	return c.Store.SetRange(key, off, val)
}
func (c *countingStore) Append(key string, val []byte) (int, error) {
	c.op(key, len(val))
	return c.Store.Append(key, val)
}
func (c *countingStore) Len(key string) (int, error) {
	c.op(key, 0)
	return c.Store.Len(key)
}
func (c *countingStore) Delete(key string) error {
	c.op(key, 0)
	return c.Store.Delete(key)
}
func (c *countingStore) SetEx(key string, val []byte, ttl time.Duration) error {
	c.op(key, len(val))
	return c.Store.SetEx(key, val, ttl)
}
func (c *countingStore) TTL(key string) (time.Duration, error) {
	c.op(key, 0)
	return c.Store.TTL(key)
}
func (c *countingStore) SAdd(key, member string) (bool, error) {
	c.op(key, len(member))
	return c.Store.SAdd(key, member)
}
func (c *countingStore) SRem(key, member string) (bool, error) {
	c.op(key, len(member))
	return c.Store.SRem(key, member)
}
func (c *countingStore) SMembers(key string) ([]string, error) {
	m, err := c.Store.SMembers(key)
	c.op(key, len(strings.Join(m, "")))
	return m, err
}
func (c *countingStore) Incr(key string, delta int64) (int64, error) {
	c.op(key, 8)
	return c.Store.Incr(key, delta)
}
func (c *countingStore) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	c.op(key, 0)
	return c.Store.Lock(key, write, ttl)
}
func (c *countingStore) Unlock(key string, token uint64) error {
	c.op(key, 0)
	return c.Store.Unlock(key, token)
}

// failOn fails executions whose input is "fail" and echoes the rest.
func failOn(fn string, input []byte, tr obsv.TraceID) ([]byte, int32, error) {
	if string(input) == "fail" {
		return nil, 1, errors.New("guest trapped")
	}
	return echo(fn, input, tr)
}

// The claim path's cost must not depend on the backlog: at every depth a
// claim issues the same tier ops carrying the same bytes, with Concurrency
// items in flight and one parked in backoff.
func TestClaimCostFlatAcrossDepth(t *testing.T) {
	type cost struct{ ops, bytes int64 }
	var costs []cost
	for _, depth := range []int{10, 100, 1000, 4000} {
		vc := vtime.NewVirtual()
		eng := kvs.NewEngine()
		eng.SetNowFunc(vc.Now)
		st := &countingStore{Store: eng}
		q := New(Config{Store: st, Clock: vc, Host: "h1", DepthCap: -1}, execFunc(failOn))
		if _, err := q.Submit("wc", []byte("fail")); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < depth; i++ {
			if _, err := q.Submit("wc", []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		it, att, ok := q.claim("wc")
		if !ok {
			t.Fatalf("depth %d: first claim failed", depth)
		}
		q.runItem("wc", it, att) // fails: parked in backoff
		for i := 0; i < q.concurrency(); i++ {
			if _, _, ok := q.claim("wc"); !ok { // held in flight, never run
				t.Fatalf("depth %d: in-flight claim %d failed", depth, i)
			}
		}
		const measured = 3
		ops0, bytes0 := st.ops.Load(), st.bytes.Load()
		for i := 0; i < measured; i++ {
			if _, _, ok := q.claim("wc"); !ok {
				t.Fatalf("depth %d: measured claim %d failed", depth, i)
			}
		}
		c := cost{(st.ops.Load() - ops0) / measured, (st.bytes.Load() - bytes0) / measured}
		t.Logf("depth %4d: %d tier ops and %d bytes per claim", depth, c.ops, c.bytes)
		costs = append(costs, c)
		q.Close()
	}
	for _, c := range costs[1:] {
		if c != costs[0] {
			t.Fatalf("claim cost varies with depth: %+v", costs)
		}
	}
	if costs[0].ops > 6 {
		t.Fatalf("claim costs %d tier ops, want at most 6", costs[0].ops)
	}
}

// A submit on this host wakes its consumers at once: on a virtual clock
// that nobody advances, the poll fallback never fires, so the call, and the
// chained call its completion submits, complete on the wake-up alone.
func TestWakeLocalSubmitWithoutClockAdvance(t *testing.T) {
	vc := vtime.NewVirtual()
	eng := kvs.NewEngine()
	eng.SetNowFunc(vc.Now)
	q := New(Config{Store: eng, Clock: vc, Host: "h1", Poll: time.Hour}, execFunc(echo))
	t.Cleanup(q.Close)
	if err := q.Then("a", "b"); err != nil {
		t.Fatal(err)
	}
	q.EnsureConsumer("a")
	q.EnsureConsumer("b")
	waitFor(t, "consumers parked on their poll timers", func() bool {
		return vc.Pending() == 2*q.concurrency()
	})
	t0 := vc.Now()
	id, err := q.Submit("a", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	head := awaitResult(t, q, id)
	if head.ChildID == 0 {
		t.Fatalf("head result = %+v", head)
	}
	tail := awaitResult(t, q, head.ChildID)
	if string(tail.Output) != "echo:echo:x" {
		t.Fatalf("chain output = %q", tail.Output)
	}
	if !vc.Now().Equal(t0) {
		t.Fatalf("virtual clock moved by %v", vc.Now().Sub(t0))
	}
}

// A consumer that dies after taking its ticket but before leasing the item
// leaves a ticketed slot nobody holds. The sweep gives such a claim one
// lease TTL, then redelivers the item exactly once.
func TestSweepRedeliversTicketedOrphanOnce(t *testing.T) {
	var runs atomic.Int32
	count := execFunc(func(fn string, in []byte, tr obsv.TraceID) ([]byte, int32, error) {
		runs.Add(1)
		return echo(fn, in, tr)
	})
	q, vc := newVirtualQueue(t, Config{Host: "h1", LeaseTTL: time.Second}, count)
	id, err := q.Submit("wc", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := q.take("wc", q.state("wc")); !ok || got != id { // the consumer dies here
		t.Fatalf("take = %d %v", got, ok)
	}
	if _, _, ok := q.claim("wc"); ok {
		t.Fatal("claimed a ticketed item")
	}
	vc.Advance(500 * time.Millisecond)
	if _, _, ok := q.claim("wc"); ok {
		t.Fatal("redelivered before one lease TTL")
	}
	vc.Advance(600 * time.Millisecond)
	it, att, ok := q.claim("wc")
	if !ok || it.Rec.ID != id || att != 1 {
		t.Fatalf("redelivery claim = %d att=%d ok=%v", it.Rec.ID, att, ok)
	}
	q.runItem("wc", it, att)
	for i := 0; i < 5; i++ {
		vc.Advance(time.Second)
		if _, _, ok := q.claim("wc"); ok {
			t.Fatal("item delivered again after completion")
		}
	}
	if rec := awaitResult(t, q, id); string(rec.Output) != "echo:x" {
		t.Fatalf("result = %+v", rec)
	}
	if r, got := q.Stats().Redelivered, runs.Load(); r != 1 || got != 1 {
		t.Fatalf("redelivered %d, executed %d; want 1 and 1", r, got)
	}
	assertRetired(t, q.cfg.Store.(*kvs.Engine))
}

// A delivery that recorded its result but died before acking is
// redelivered on lease expiry; the redelivery acks without executing.
func TestSweepRedeliveryWithResultAcksWithoutExecuting(t *testing.T) {
	var runs atomic.Int32
	count := execFunc(func(fn string, in []byte, tr obsv.TraceID) ([]byte, int32, error) {
		runs.Add(1)
		return echo(fn, in, tr)
	})
	q, vc := newVirtualQueue(t, Config{Host: "h1", LeaseTTL: time.Second}, count)
	id, err := q.Submit("wc", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	it, _, ok := q.claim("wc")
	if !ok {
		t.Fatal("claim failed")
	}
	done := it.Rec
	done.Status, done.Output = mbus.CallSucceeded, []byte("first")
	blob, _ := json.Marshal(done)
	if err := q.cfg.Store.Set(resultKey(id), blob); err != nil { // then the host dies
		t.Fatal(err)
	}
	vc.Advance(2 * time.Second)
	it2, att, ok := q.claim("wc")
	if !ok || att != 2 {
		t.Fatalf("redelivery att=%d ok=%v", att, ok)
	}
	q.runItem("wc", it2, att)
	if n := runs.Load(); n != 0 {
		t.Fatalf("executed %d times, want 0", n)
	}
	if rec := awaitResult(t, q, id); string(rec.Output) != "first" {
		t.Fatalf("result = %+v", rec)
	}
	if d, _ := q.Depth("wc"); d != 0 {
		t.Fatalf("depth after ack = %d", d)
	}
	assertRetired(t, q.cfg.Store.(*kvs.Engine))
}

// A permit lost between a log append and its ready increment, and an
// excess permit, both heal: the stranded item is claimed after a lease TTL,
// and after the excess is absorbed tickets line up with their slots again.
func TestSweepHealsPermitMiscounts(t *testing.T) {
	q, vc := newVirtualQueue(t, Config{Host: "h1", LeaseTTL: time.Second}, execFunc(echo))
	st := q.cfg.Store
	drain := func() (ids []uint64) {
		for {
			it, att, ok := q.claim("wc")
			if !ok {
				return ids
			}
			q.runItem("wc", it, att)
			ids = append(ids, it.Rec.ID)
		}
	}
	lost, _ := q.Submit("wc", nil)
	st.Incr(readyKey("wc", q.state("wc").epoch.Load()), -1) // the submitter died before its permit
	if got := drain(); len(got) != 0 {
		t.Fatalf("claimed %v with no permit", got)
	}
	for i := 0; i < 2 && q.Stats().Completed == 0; i++ {
		vc.Advance(time.Second)
		drain()
	}
	if _, ok, err := q.Result(lost); !ok || err != nil {
		t.Fatalf("stranded item not completed: %v", err)
	}

	st.Incr(readyKey("wc", q.state("wc").epoch.Load()), 1) // a permit too many
	if got := drain(); len(got) != 0 {
		t.Fatalf("claimed %v from an empty log", got)
	}
	skipped, _ := q.Submit("wc", nil) // lands in the ghost-ticketed slot
	next, _ := q.Submit("wc", nil)
	if got := drain(); len(got) != 1 || got[0] != next {
		t.Fatalf("after an excess permit claimed %v, want [%d]", got, next)
	}
	for i := 0; i < 3 && q.Stats().Completed < 3; i++ {
		vc.Advance(time.Second)
		drain()
	}
	if rec := awaitResult(t, q, skipped); rec.Status != mbus.CallSucceeded {
		t.Fatalf("skipped item result = %+v", rec)
	}
	if d, _ := q.Depth("wc"); d != 0 {
		t.Fatalf("depth = %d", d)
	}
}

// A lost permit is restored once however many hosts sweep: the checkpoint
// runs under the sweep lock, so the second host sees the permit the first
// restored and adds none, and the next submit is claimed at once rather
// than landing in a ghost-ticketed slot.
func TestSweepHealsLostPermitOnceAcrossHosts(t *testing.T) {
	vc := vtime.NewVirtual()
	eng := kvs.NewEngine()
	eng.SetNowFunc(vc.Now)
	st := &countingStore{Store: eng, delay: 200 * time.Microsecond}
	mk := func(host string) *Queue {
		q := New(Config{Store: st, Clock: vc, Host: host, LeaseTTL: time.Second}, execFunc(echo))
		t.Cleanup(q.Close)
		return q
	}
	a, b := mk("a"), mk("b")
	lost, _ := a.Submit("wc", nil)
	e := a.state("wc").epoch.Load()
	eng.Incr(readyKey("wc", e), -1) // the submitter died before its permit
	// Both hosts sweep concurrently, as two hosts would.
	sweepBoth := func() {
		var wg sync.WaitGroup
		for _, q := range []*Queue{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q.sweep("wc", q.state("wc"))
			}()
		}
		wg.Wait()
	}
	sweepBoth() // both hosts set their marks
	vc.Advance(1100 * time.Millisecond)
	sweepBoth()
	if r, _ := eng.Incr(readyKey("wc", e), 0); r != live+1 {
		t.Fatalf("permits after two hosts healed = %d, want 1", r-live)
	}
	it, att, ok := b.claim("wc")
	if !ok || it.Rec.ID != lost {
		t.Fatalf("claim = %d ok=%v, want the stranded call %d", it.Rec.ID, ok, lost)
	}
	b.runItem("wc", it, att)
	next, _ := a.Submit("wc", nil)
	if it, _, ok := a.claim("wc"); !ok || it.Rec.ID != next {
		t.Fatalf("claim after heal = %d ok=%v, want %d at once", it.Rec.ID, ok, next)
	}
}

// The sweep reads only the slots ticketed since its last run: an item held
// in flight does not make each sweep re-read, or rewrite, the deliveries
// made after it.
func TestSweepCostIgnoresHeldItem(t *testing.T) {
	vc := vtime.NewVirtual()
	eng := kvs.NewEngine()
	eng.SetNowFunc(vc.Now)
	st := &countingStore{Store: eng}
	q := New(Config{Store: st, Clock: vc, Host: "h1", LeaseTTL: time.Hour, DepthCap: -1}, execFunc(echo))
	t.Cleanup(q.Close)
	fs := q.state("wc")
	held, _ := q.Submit("wc", nil)
	if it, _, ok := q.claim("wc"); !ok || it.Rec.ID != held {
		t.Fatal("claim of the held item failed")
	}
	const rounds, batch = 20, 50
	var bytes []int64
	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			q.Submit("wc", []byte("x"))
		}
		for i := 0; i < batch; i++ {
			it, att, ok := q.claim("wc")
			if !ok {
				t.Fatalf("round %d: claim %d failed", r, i)
			}
			q.runItem("wc", it, att)
		}
		vc.Advance(q.poll())
		b0 := st.bytes.Load()
		q.sweep("wc", fs)
		bytes = append(bytes, st.bytes.Load()-b0)
	}
	t.Logf("bytes per sweep: %v", bytes)
	first, last := bytes[1], bytes[rounds-1]
	if last > first+first/5 {
		t.Fatalf("sweep cost grew from %d to %d bytes with %d deliveries behind the held item", first, last, rounds*batch)
	}
	if len(fs.open) != 1 || fs.open[0].pos != 0 {
		t.Fatalf("open slots = %+v, want only the held item", fs.open)
	}
}

// Many submit/ack cycles keep the ready log bounded: once the log reaches
// sealSlots the sweep seals the epoch and carries its unretired slots
// (here one item held in flight throughout) into a fresh one, and the
// old epoch's keys are deleted one seal later.
func TestSweepCompactsReadyLog(t *testing.T) {
	q, vc := newVirtualQueue(t, Config{Host: "h1", LeaseTTL: time.Second, DepthCap: -1}, execFunc(echo))
	eng := q.cfg.Store.(*kvs.Engine)
	held, _ := q.Submit("wc", []byte("held"))
	hit, hatt, ok := q.claim("wc")
	if !ok || hit.Rec.ID != held {
		t.Fatal("claim of the held item failed")
	}
	const cycles, batch = 24, 1000
	logBytes := func() (total int) {
		keys, _ := eng.AllKeys()
		for _, k := range keys {
			if strings.HasPrefix(k.Key, "q/log/") {
				n, _ := eng.Len(k.Key)
				total += n
			}
		}
		return total
	}
	maxLog := 0
	for c := 0; c < cycles; c++ {
		for i := 0; i < batch; i++ {
			if _, err := q.Submit("wc", nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < batch; i++ {
			it, att, ok := q.claim("wc")
			if !ok {
				t.Fatalf("cycle %d: claim %d failed", c, i)
			}
			q.runItem("wc", it, att)
		}
		eng.SetEx(leaseKey(held), []byte("h1"), time.Second) // still running
		vc.Advance(600 * time.Millisecond)
		q.sweep("wc", q.state("wc"))
		if n := logBytes(); n > maxLog {
			maxLog = n
		}
	}
	e := q.state("wc").epoch.Load()
	t.Logf("epoch %d, largest total log %d bytes after %d deliveries", e, maxLog, cycles*batch)
	if e < 3 {
		t.Fatalf("epoch = %d after %d deliveries; the log was never compacted", e, cycles*batch)
	}
	if bound := 2 * (sealSlots + 2*batch) * slotSize; maxLog > bound {
		t.Fatalf("ready log reached %d bytes, want at most %d", maxLog, bound)
	}
	keys, _ := eng.AllKeys()
	for _, k := range keys {
		for _, old := range []int64{e - 2, e - 3} {
			if strings.HasSuffix(k.Key, "/wc/"+fmt.Sprint(old)) {
				t.Fatalf("key %s of epoch %d outlived two seals", k.Key, old)
			}
		}
	}
	q.runItem("wc", hit, hatt) // the held item was carried, not lost
	if rec := awaitResult(t, q, held); string(rec.Output) != "echo:held" {
		t.Fatalf("held result = %+v", rec)
	}
	if d, _ := q.Depth("wc"); d != 0 {
		t.Fatalf("depth = %d", d)
	}
	if r := q.Stats().Redelivered; r != 0 {
		t.Fatalf("%d redeliveries", r)
	}
}

// A seal carries ready and in-flight slots; a submit whose slot lands in a
// sealed epoch appends it again to the next one, also after the sealed
// epoch's keys are gone, and every call runs exactly once.
func TestSweepSealCarriesAndSettlesStragglers(t *testing.T) {
	var runs atomic.Int32
	count := execFunc(func(fn string, in []byte, tr obsv.TraceID) ([]byte, int32, error) {
		runs.Add(1)
		return echo(fn, in, tr)
	})
	vc := vtime.NewVirtual()
	eng := kvs.NewEngine()
	eng.SetNowFunc(vc.Now)
	mk := func(host string) *Queue {
		q := New(Config{Store: eng, Clock: vc, Host: host, LeaseTTL: time.Second}, count)
		t.Cleanup(q.Close)
		return q
	}
	a, b := mk("a"), mk("b")
	fa, fb := a.state("wc"), b.state("wc")
	inflight, _ := a.Submit("wc", []byte("1"))
	ready, _ := a.Submit("wc", []byte("2"))
	it, _, ok := a.claim("wc") // its host dies holding it
	if !ok || it.Rec.ID != inflight {
		t.Fatal("claim failed")
	}
	if e, err := b.advance("wc", fb, 1); err != nil || e != 2 {
		t.Fatalf("advance = %d %v", e, err)
	}
	late, _ := a.Submit("wc", []byte("3")) // a still knows epoch 1
	if e := fa.epoch.Load(); e != 2 {
		t.Fatalf("submitter epoch after settling = %d, want 2", e)
	}
	b.advance("wc", fb, 2)
	b.advance("wc", fb, 3)
	fa.epoch.Store(1) // a submitter stalled since epoch 1
	stale, _ := a.Submit("wc", []byte("4"))
	fa.epoch.Store(1) // and a consumer that has idled since
	if _, _, ok := a.claim("wc"); !ok {
		t.Fatal("lagging consumer claimed nothing")
	}
	keys, _ := eng.AllKeys()
	for _, k := range keys {
		if strings.HasSuffix(k.Key, "/wc/1") {
			t.Fatalf("key %s of compacted epoch 1 recreated", k.Key)
		}
	}
	drain := func() {
		for {
			it, att, ok := b.claim("wc")
			if !ok {
				return
			}
			b.runItem("wc", it, att)
		}
	}
	drain()
	vc.Advance(1100 * time.Millisecond) // the dead host's lease lapses
	drain()
	vc.Advance(100 * time.Millisecond)
	drain()
	for _, id := range []uint64{inflight, ready, late, stale} {
		if rec := awaitResult(t, b, id); rec.Status != mbus.CallSucceeded {
			t.Fatalf("call %d: %+v", id, rec)
		}
	}
	if n := runs.Load(); n != 4 {
		t.Fatalf("%d executions for 4 calls", n)
	}
	if d, _ := b.Depth("wc"); d != 0 {
		t.Fatalf("depth = %d", d)
	}
	assertRetired(t, eng)
}

// Submits from several goroutines and consumers on two hosts race the
// seals that compact the log: every call still completes with its own
// output and nothing is left queued.
func TestSweepSealUnderConcurrentLoad(t *testing.T) {
	eng := kvs.NewEngine()
	mk := func(host string) *Queue {
		q := New(Config{Store: eng, Host: host, Poll: time.Millisecond, LeaseTTL: 10 * time.Millisecond, DepthCap: -1, Concurrency: 2}, execFunc(echo))
		q.EnsureConsumer("wc")
		return q
	}
	a, b := mk("a"), mk("b")
	defer a.Close()
	defer b.Close()
	const submitters, per = 3, 3000
	ids := make([][]uint64, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := a
				if i%2 == 1 {
					q = b
				}
				id, err := q.Submit("wc", []byte(fmt.Sprintf("%d/%d", g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], id)
			}
		}()
	}
	wg.Wait()
	for g := range ids {
		for i, id := range ids[g] {
			if rec := awaitResult(t, a, id); string(rec.Output) != fmt.Sprintf("echo:%d/%d", g, i) {
				t.Fatalf("call %d/%d: %+v", g, i, rec)
			}
		}
	}
	waitFor(t, "queue drained", func() bool { d, _ := a.Depth("wc"); return d == 0 })
	e, _ := eng.Incr(epochKey("wc"), 0)
	t.Logf("epoch %d after %d calls, redelivered %d+%d", e, submitters*per, a.Stats().Redelivered, b.Stats().Redelivered)
	assertRetired(t, eng)
}

// A fault-free run redelivers nothing and leaves no per-item bookkeeping
// behind, even with consumers on two hosts racing over a slow tier.
func TestClaimNoSpuriousRedeliveryUnderTierLatency(t *testing.T) {
	eng := kvs.NewEngine()
	st := &countingStore{Store: eng, delay: 20 * time.Microsecond}
	mk := func(host string) *Queue {
		q := New(Config{Store: st, Host: host, Poll: time.Millisecond, Concurrency: 2}, execFunc(echo))
		q.EnsureConsumer("wc")
		return q
	}
	a, b := mk("a"), mk("b")
	defer a.Close()
	defer b.Close()
	const n = 120
	ids := make([]uint64, n)
	for i := range ids {
		id, err := a.Submit("wc", []byte(fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		if rec := awaitResult(t, a, id); string(rec.Output) != fmt.Sprintf("echo:%d", i) {
			t.Fatalf("call %d: %+v", i, rec)
		}
	}
	waitFor(t, "queue drained", func() bool { d, _ := a.Depth("wc"); return d == 0 })
	if r := a.Stats().Redelivered + b.Stats().Redelivered; r != 0 {
		t.Fatalf("%d redeliveries on a fault-free run", r)
	}
	if c := a.Stats().Completed + b.Stats().Completed; c != n {
		t.Fatalf("%d completions, want %d", c, n)
	}
	assertRetired(t, eng)
}

// assertRetired fails if any per-item delivery key outlived its ack.
func assertRetired(t *testing.T, eng *kvs.Engine) {
	t.Helper()
	keys, err := eng.AllKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		for _, p := range []string{"q/lease/", "q/item/", "q/attempt/"} {
			if strings.HasPrefix(k.Key, p) {
				t.Fatalf("key %s left after every item was acked", k.Key)
			}
		}
	}
}

// awaitResult polls Result on the wall clock, so it works whatever clock
// the queue runs on.
func awaitResult(t *testing.T, q *Queue, id uint64) mbus.CallRecord {
	t.Helper()
	var rec mbus.CallRecord
	waitFor(t, fmt.Sprintf("result of call %d", id), func() bool {
		r, ok, err := q.Result(id)
		rec = r
		return err == nil && ok
	})
	return rec
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
