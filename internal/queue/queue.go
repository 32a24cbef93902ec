package queue

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/vtime"
)

// Sentinel errors.
var (
	// ErrQueueFull is Submit's backpressure signal: the function's queue
	// is at its depth cap and the call was shed, not accepted.
	ErrQueueFull = errors.New("queue: full")
	// ErrConsumerDead is returned by an Executor whose host has crashed
	// (or is draining): the consumer abandons the item without writing
	// anything, leaving the in-flight lease to expire and the item to be
	// redelivered elsewhere.
	ErrConsumerDead = errors.New("queue: consumer dead")
	// ErrUnknownCall marks an id with neither a pending item nor a result.
	ErrUnknownCall = errors.New("queue: unknown call")
	// ErrAwaitTimeout is Await's deadline signal.
	ErrAwaitTimeout = errors.New("queue: await timed out")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("queue: closed")
)

// Defaults.
const (
	DefaultDepthCap     = 1024
	DefaultLeaseTTL     = 10 * time.Second
	DefaultRetryMax     = 3
	DefaultRetryBackoff = 100 * time.Millisecond
	DefaultPoll         = 20 * time.Millisecond
	DefaultConcurrency  = 2
)

// Executor runs one claimed item. The trace id is the submitting call's
// (0 = untraced); implementations join it so the execution's spans land
// under the submit-side trace.
type Executor interface {
	ExecuteQueued(fn string, input []byte, trace obsv.TraceID) ([]byte, int32, error)
}

// Config sizes one queue handle. Every host builds its own handle over its
// own view of the shared tier; the queue state itself lives tier-side, so
// all handles over the same tier see one queue.
type Config struct {
	// Store is the global tier holding all queue state.
	Store kvs.Store
	// Clock drives consumer polling, lease TTLs, and backoff (nil = wall
	// clock). Lease *expiry* is judged on the tier's clock, not this one.
	Clock vtime.Clock
	// Host names this handle in leases and results.
	Host string
	// DepthCap bounds each function's queued-plus-in-flight items; Submit
	// sheds with ErrQueueFull beyond it (0 = DefaultDepthCap, < 0 = no cap).
	DepthCap int
	// LeaseTTL is the in-flight lease on a claimed item: a consumer that
	// dies mid-execution has its item reclaimed this long after the claim
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// RetryMax bounds redeliveries after the first delivery; past it the
	// item dead-letters (0 = DefaultRetryMax, < 0 = no retries).
	RetryMax int
	// RetryBackoff is the base redelivery backoff after a failed
	// execution, doubling per attempt (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
	// Poll is the consumers' fallback cadence (0 = DefaultPoll). A submit
	// through this handle wakes its consumers at once, so polling only
	// finds work submitted on other hosts and items the sweep puts back
	// (lapsed leases, finished backoffs); Poll also bounds how often this
	// handle sweeps each function, and paces Await.
	Poll time.Duration
	// Concurrency is the consumer loops per function on this host — the
	// bound on this host's concurrent executions per function
	// (0 = DefaultConcurrency).
	Concurrency int
	// Gate, when non-nil, reports whether this host may claim work. A
	// crashed or draining host returns false and its consumers idle.
	Gate func() bool
	// Dead, when non-nil, reports a crashed host. An execution finishing
	// after Dead flips true is abandoned unrecorded — the crash semantics —
	// whereas a merely drained host (Gate false, Dead false) still records
	// results for work it already held.
	Dead func() bool
	// Tracer, when non-nil, records queue.wait spans on traced items.
	Tracer *obsv.Tracer
}

// Queue is one host's handle on the shared durable queue.
type Queue struct {
	cfg  Config
	exec Executor

	mu        sync.Mutex
	consumers map[string]struct{}
	fns       map[string]*fnState
	closed    bool
	stop      chan struct{}
	wg        sync.WaitGroup

	// Metric counters, all host-local views of this handle's activity.
	enqueued     atomic.Int64
	redelivered  atomic.Int64
	deadLettered atomic.Int64
	completed    atomic.Int64
}

// New builds a queue handle. exec may be nil for submit/await-only handles
// (a front door); EnsureConsumer then refuses to start loops.
func New(cfg Config, exec Executor) *Queue {
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.Host == "" {
		cfg.Host = "queue-client"
	}
	return &Queue{
		cfg:       cfg,
		exec:      exec,
		consumers: map[string]struct{}{},
		fns:       map[string]*fnState{},
		stop:      make(chan struct{}),
	}
}

// fnState is this handle's local state for one function: the doorbell
// its consumers wait on, the ready-log epoch it last saw, and the sweep's
// bookkeeping.
type fnState struct {
	// wake holds up to Concurrency tokens; each local submit adds one, so
	// a burst wakes every consumer and a lone submit wakes one.
	wake chan struct{}
	// epoch is the ready-log epoch this handle last saw (0 = none yet).
	epoch atomic.Int64

	// mu guards the fields below. A sweep holds it throughout and claims
	// TryLock it, so one local sweep runs at a time and never blocks a claim.
	mu      sync.Mutex
	sweptAt time.Time
	// swept is the epoch the fields below describe; epochAt is when this
	// handle's sweep first saw it.
	swept   int64
	epochAt time.Time
	// scanned counts the epoch's slots the sweep has read; every one was
	// ticketed when read. open holds those not yet retired: leased,
	// parked in backoff, or ticketed and not yet leased.
	scanned int64
	open    []openSlot
	// At markAt the head cursor stood at markHead and the log held markLen
	// slots; the mark moves once per lease TTL.
	markAt   time.Time
	markHead int64
	markLen  int64
}

// openSlot is a ticketed log slot the sweep has not retired: its position
// in the epoch, its packed value and when this handle first read it.
type openSlot struct {
	pos  int64
	slot uint64
	seen time.Time
}

func (q *Queue) stateLocked(fn string) *fnState {
	fs := q.fns[fn]
	if fs == nil {
		fs = &fnState{wake: make(chan struct{}, q.concurrency())}
		q.fns[fn] = fs
	}
	return fs
}

func (q *Queue) state(fn string) *fnState {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stateLocked(fn)
}

// Tier key layout. Everything is keyed by the global call id except the
// per-function keys: the ready-log epoch and, per epoch, the log, its
// ready and head counters and its seal record; the pending set, depth
// counter, dead-letter set, chain record and sweep lock.
func itemKey(id uint64) string    { return "q/item/" + strconv.FormatUint(id, 10) }
func leaseKey(id uint64) string   { return "q/lease/" + strconv.FormatUint(id, 10) }
func attemptKey(id uint64) string { return "q/attempt/" + strconv.FormatUint(id, 10) }
func resultKey(id uint64) string  { return "q/result/" + strconv.FormatUint(id, 10) }
func epochKey(fn string) string   { return "q/epoch/" + fn }
func pendingKey(fn string) string { return "q/pending/" + fn }
func depthKey(fn string) string   { return "q/depth/" + fn }
func deadKey(fn string) string    { return "q/dead/" + fn }
func chainKey(fn string) string   { return "q/chain/" + fn }
func claimKey(fn string) string   { return "q/claim/" + fn }

func epochPart(fn string, e int64) string { return fn + "/" + strconv.FormatInt(e, 10) }
func logKey(fn string, e int64) string    { return "q/log/" + epochPart(fn, e) }
func readyKey(fn string, e int64) string  { return "q/ready/" + epochPart(fn, e) }
func headKey(fn string, e int64) string   { return "q/head/" + epochPart(fn, e) }
func sealKey(fn string, e int64) string   { return "q/seal/" + epochPart(fn, e) }

const idKey = "q/id"

// A ready-log slot is 8 little-endian bytes: the call id in the low 48
// bits and, above them, the item's attempt count when the slot was
// appended (its generation). A zero slot has been retired by the sweep.
const (
	slotSize = 8
	idBits   = 48
	idMask   = 1<<idBits - 1
)

// An open epoch's ready and head counters are offset by live: ready holds
// live plus the permits left, and a seal subtracts live from it, so a
// sealed counter and one deleted (and recreated by a late increment) both
// read below live/2. A seal adds live to head, so a ticket taken after it
// names no slot.
const live = 1 << 40

// sealSlots is the log length at which the sweep compacts an epoch: at
// most once per lease TTL per handle, it seals the epoch and carries its
// unretired slots into a fresh one.
const sealSlots = 4096

func packSlot(id uint64, gen int64) uint64 { return uint64(gen)<<idBits | id&idMask }

func unpackSlot(v uint64) (uint64, int64) { return v & idMask, int64(v >> idBits) }

func slotBytes(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func slotAt(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*slotSize:]) }

// item is the tier-side queue record: the call plus its enqueue time on the
// submitter's clock (feeds the queue.wait span).
type item struct {
	Rec        mbus.CallRecord
	EnqueuedAt int64
}

func (q *Queue) depthCap() int {
	if q.cfg.DepthCap == 0 {
		return DefaultDepthCap
	}
	return q.cfg.DepthCap
}

func (q *Queue) leaseTTL() time.Duration {
	if q.cfg.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return q.cfg.LeaseTTL
}

func (q *Queue) retryMax() int {
	if q.cfg.RetryMax == 0 {
		return DefaultRetryMax
	}
	if q.cfg.RetryMax < 0 {
		return 0
	}
	return q.cfg.RetryMax
}

func (q *Queue) poll() time.Duration {
	if q.cfg.Poll <= 0 {
		return DefaultPoll
	}
	return q.cfg.Poll
}

func (q *Queue) concurrency() int {
	if q.cfg.Concurrency <= 0 {
		return DefaultConcurrency
	}
	return q.cfg.Concurrency
}

// backoff is the redelivery delay after failed attempt att (1-based),
// doubling from the base and capped at 8x so a retried item cannot park
// longer than a small multiple of the base.
func (q *Queue) backoff(att int) time.Duration {
	base := q.cfg.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base
	for i := 1; i < att && d < 8*base; i++ {
		d *= 2
	}
	if d > 8*base {
		d = 8 * base
	}
	return d
}

func (q *Queue) gateOpen() bool { return q.cfg.Gate == nil || q.cfg.Gate() }
func (q *Queue) dead() bool     { return q.cfg.Dead != nil && q.cfg.Dead() }

// Submit enqueues one asynchronous call and acks immediately with its
// global call id. The item is durable once Submit returns: it lives in the
// tier, not on this host. Sheds with ErrQueueFull at the depth cap.
func (q *Queue) Submit(fn string, input []byte) (uint64, error) {
	return q.submit(fn, input, 0, 0)
}

// SubmitTraced is Submit carrying the submitting invocation's trace id, so
// the consumer-side spans (queue.wait, exec) join the submit-side trace.
func (q *Queue) SubmitTraced(fn string, input []byte, trace uint64) (uint64, error) {
	return q.submit(fn, input, 0, trace)
}

func (q *Queue) submit(fn string, input []byte, parent, trace uint64) (uint64, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, ErrClosed
	}
	fs := q.stateLocked(fn)
	q.mu.Unlock()

	st := q.cfg.Store
	if cap := q.depthCap(); cap > 0 {
		d, err := st.Incr(depthKey(fn), 1)
		if err != nil {
			return 0, err
		}
		if d > int64(cap) {
			st.Incr(depthKey(fn), -1)
			return 0, fmt.Errorf("%w: %s at depth cap %d", ErrQueueFull, fn, cap)
		}
	} else if _, err := st.Incr(depthKey(fn), 1); err != nil {
		return 0, err
	}
	idv, err := st.Incr(idKey, 1)
	if err != nil {
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	id := uint64(idv)
	it := item{
		Rec: mbus.CallRecord{
			ID:       id,
			Function: fn,
			Input:    append([]byte(nil), input...),
			Status:   mbus.CallQueued,
			TraceID:  trace,
			ParentID: parent,
		},
		EnqueuedAt: q.cfg.Clock.Now().UnixNano(),
	}
	blob, err := json.Marshal(it)
	if err != nil {
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	// Item record first, then the pending entry that guards its depth
	// release, then the log slot: a consumer that reaches the slot can
	// always read the item.
	if err := st.Set(itemKey(id), blob); err != nil {
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	if _, err := st.SAdd(pendingKey(fn), strconv.FormatUint(id, 10)); err != nil {
		st.Delete(itemKey(id))
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	if err := q.enqueue(fn, fs, packSlot(id, 0)); err != nil {
		q.ack(fn, id)
		return 0, err
	}
	q.enqueued.Add(1)
	return id, nil
}

// enqueue appends slot to fn's ready log and adds its permit. Once the
// slot is appended to an open epoch the item is accepted: a failed permit
// is made good by the sweep, which finds the slot unticketed. A slot that
// lands in an epoch sealed meanwhile is settled: left to the seal when the
// seal carried it, appended to the next epoch otherwise.
func (q *Queue) enqueue(fn string, fs *fnState, slot uint64) error {
	st := q.cfg.Store
	e, err := q.epoch(fn, fs)
	if err != nil {
		return err
	}
	for {
		n, err := st.Append(logKey(fn, e), slotBytes(slot))
		if err != nil {
			return err
		}
		r, err := st.Incr(readyKey(fn, e), 1)
		if err != nil || r > live/2 {
			q.ring(fs)
			return nil
		}
		carried, next, err := q.settle(fn, fs, e, int64(n/slotSize-1))
		if err != nil || carried {
			return err
		}
		e = next
	}
}

// ring wakes one of this handle's consumers for the function.
func (q *Queue) ring(fs *fnState) {
	select {
	case fs.wake <- struct{}{}:
	default:
	}
}

// epoch returns fn's current ready-log epoch as this handle last saw it,
// opening the first epoch if fn has none yet.
func (q *Queue) epoch(fn string, fs *fnState) (int64, error) {
	if e := fs.epoch.Load(); e > 0 {
		return e, nil
	}
	e, err := q.cfg.Store.Incr(epochKey(fn), 0)
	if err == nil && e == 0 {
		e, err = q.advance(fn, fs, 0)
	}
	if err != nil {
		return 0, err
	}
	fs.epoch.Store(e)
	return e, nil
}

// settle resolves a slot appended at pos of epoch e whose permit found e
// sealed. A slot below the seal's measured log length is carried by the
// seal; any other is to be appended again, to the epoch settle returns. A
// seal left unfinished by a dead sweep is finished here.
func (q *Queue) settle(fn string, fs *fnState, e, pos int64) (bool, int64, error) {
	st := q.cfg.Store
	for {
		b, err := st.Get(sealKey(fn, e))
		if err != nil {
			return false, 0, err
		}
		if b != nil {
			if _, n := parseSeal(b); pos < n {
				return true, 0, nil
			}
		}
		cur, err := st.Incr(epochKey(fn), 0)
		if err != nil {
			return false, 0, err
		}
		if cur > e {
			if b == nil && cur > e+1 {
				// e was compacted away and this slot recreated its keys.
				st.Delete(logKey(fn, e))
				st.Delete(readyKey(fn, e))
			}
			fs.epoch.Store(cur)
			return false, cur, nil
		}
		if _, err := q.advance(fn, fs, e); err != nil {
			return false, 0, err
		}
	}
}

// Then records a static chain: every successful completion of fn enqueues
// next with fn's output as input. Chains are tier-side, so consumers on
// every host (including ones provisioned later) observe them.
func (q *Queue) Then(fn, next string) error {
	return q.cfg.Store.Set(chainKey(fn), []byte(next))
}

// EnsureConsumer starts this host's consumer loops for fn (idempotent).
func (q *Queue) EnsureConsumer(fn string) {
	if q.exec == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if _, ok := q.consumers[fn]; ok {
		return
	}
	q.consumers[fn] = struct{}{}
	fs := q.stateLocked(fn)
	for i := 0; i < q.concurrency(); i++ {
		q.wg.Add(1)
		go q.consumeLoop(fn, fs)
	}
}

// consumeLoop claims and runs fn's items until none is claimable, then
// waits for a local submit's wake-up or the poll fallback, whichever comes
// first.
func (q *Queue) consumeLoop(fn string, fs *fnState) {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		default:
		}
		if q.gateOpen() {
			if it, att, ok := q.claim(fn); ok {
				q.runItem(fn, it, att)
				// A consumer that never runs dry still sweeps once per
				// poll, after its item rather than before it.
				q.sweep(fn, fs)
				continue
			}
		}
		t := q.cfg.Clock.After(q.poll())
		select {
		case <-q.stop:
			t.Stop()
			return
		case <-fs.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// claim takes fn's next ready item and fences it with an in-flight lease,
// returning this delivery's attempt ordinal. A claim costs the same tier
// ops at any depth: a permit, a ticket, one log slot, the lease, the item
// and its attempt count. When nothing is ready, a due sweep runs and the
// claim tries again if it put anything back.
func (q *Queue) claim(fn string) (item, int, bool) {
	st := q.cfg.Store
	fs := q.state(fn)
	swept := false
	for {
		id, ok := q.take(fn, fs)
		if !ok {
			if swept || !q.sweep(fn, fs) {
				return item{}, 0, false
			}
			swept = true
			continue
		}
		// Lease before anything else: from here the sweep sees the slot in
		// flight, never a lapsed claim.
		if err := st.SetEx(leaseKey(id), []byte(q.cfg.Host), q.leaseTTL()); err != nil {
			return item{}, 0, false // the sweep redelivers the ticketed slot
		}
		blob, err := st.Get(itemKey(id))
		if err != nil {
			return item{}, 0, false
		}
		var it item
		if blob == nil || json.Unmarshal(blob, &it) != nil {
			// Acked since this slot was written (a duplicate slot left by
			// a sweep that died before retiring the original).
			st.Delete(leaseKey(id))
			continue
		}
		att64, err := st.Incr(attemptKey(id), 1)
		if err != nil {
			return item{}, 0, false
		}
		att := int(att64)
		if att > q.retryMax()+1 {
			// Deliveries exhausted — including ones burned by crashed
			// consumers that never reported back (poison-pill protection).
			q.deadLetter(fn, it, fmt.Errorf("queue: %d deliveries exhausted", att-1))
			continue
		}
		return it, att, true
	}
}

// take claims the next ready slot of fn's log, moving to the next epoch
// once if the one this handle knows has been sealed.
func (q *Queue) take(fn string, fs *fnState) (uint64, bool) {
	e := fs.epoch.Load()
	for moved := false; ; moved = true {
		if e == 0 || moved {
			cur, err := q.cfg.Store.Incr(epochKey(fn), 0)
			if err != nil || cur == 0 || (moved && cur == e) {
				return 0, false
			}
			if moved && cur > e+1 {
				// e's keys were deleted and the permit probe recreated one.
				q.cfg.Store.Delete(readyKey(fn, e))
			}
			fs.epoch.Store(cur)
			e = cur
		}
		id, ok, open := q.takeFrom(fn, e)
		if ok || open || moved {
			return id, ok
		}
	}
}

// takeFrom claims the next ready slot of epoch e: a permit from the ready
// counter, then a ticket from the head cursor naming the slot. Permits
// never outnumber appended slots, so the ticketed slot is always written.
// open reports that e was not found sealed.
func (q *Queue) takeFrom(fn string, e int64) (id uint64, ok, open bool) {
	st := q.cfg.Store
	for {
		n, err := st.Incr(readyKey(fn, e), -1)
		if err != nil {
			return 0, false, true
		}
		if n >= live {
			break
		}
		// No permit: hand it back. A submit that raced in between leaves
		// the count above live, and its slot is ours to take.
		r, err := st.Incr(readyKey(fn, e), 1)
		if err != nil || r <= live {
			return 0, false, err != nil || r > live/2
		}
	}
	t, err := st.Incr(headKey(fn, e), 1)
	if err != nil {
		st.Incr(readyKey(fn, e), 1)
		return 0, false, true
	}
	if t > live/2 {
		// Sealed between the permit and the ticket: the seal carried the
		// slot this permit stood for.
		return 0, false, false
	}
	b, err := st.GetRange(logKey(fn, e), int(t-1)*slotSize, slotSize)
	if err != nil {
		return 0, false, true // the sweep redelivers the ticketed slot
	}
	if len(b) != slotSize {
		// A permit too many (restored for a claimer presumed dead that
		// was only slow) ticketed a slot not yet appended. Absorb the
		// excess so later tickets line up with their slots again; the
		// sweep redelivers the item that lands in the skipped slot.
		st.Incr(readyKey(fn, e), -1)
		return 0, false, true
	}
	id, _ = unpackSlot(slotAt(b, 0))
	return id, id != 0, true
}

// sweep redelivers fn's ticketed items that are neither acked nor leased:
// a lapsed lease (its consumer died), a finished backoff, or a slot whose
// consumer died between its ticket and its lease. It runs at most once per
// poll interval on this handle and is serialized across hosts by the
// q/claim/<fn> tier lock, so each item is put back once. Each sweep reads
// only the slots ticketed since this handle's last one and judges the ones
// it has not yet seen retired, so its cost follows the deliveries since
// the last sweep and the items in flight, not the depth. Once per lease
// TTL it also restores lost permits and compacts a long log. It reports
// whether it made anything claimable.
func (q *Queue) sweep(fn string, fs *fnState) (requeued bool) {
	if !fs.mu.TryLock() {
		return false
	}
	defer fs.mu.Unlock()
	now := q.cfg.Clock.Now()
	if !fs.sweptAt.IsZero() && now.Sub(fs.sweptAt) < q.poll() {
		return false
	}
	fs.sweptAt = now
	st := q.cfg.Store
	e, err := st.Incr(epochKey(fn), 0)
	if err != nil || e == 0 {
		return false
	}
	hi, err := st.Incr(headKey(fn, e), 0)
	if err != nil || (e == fs.swept && hi == fs.scanned && len(fs.open) == 0 && now.Sub(fs.markAt) < q.leaseTTL()) {
		return false // nothing ticketed, open or due since the last sweep
	}
	tok, err := st.Lock(claimKey(fn), true, q.leaseTTL())
	if err != nil {
		return false
	}
	defer st.Unlock(claimKey(fn), tok)
	// Another host's sweep may have sealed e meanwhile.
	if e, err = st.Incr(epochKey(fn), 0); err != nil {
		return false
	}
	fs.epoch.Store(e)
	if e != fs.swept {
		fs.swept, fs.epochAt, fs.scanned, fs.open, fs.markAt = e, now, 0, nil, time.Time{}
	}
	if r, err := st.Incr(readyKey(fn, e), 0); err != nil || r <= live/2 {
		// Sealed by a sweep that died before finishing.
		return err == nil && q.seal(fn, fs, e) == nil
	}
	if hi, err = st.Incr(headKey(fn, e), 0); err != nil {
		return false
	}
	if hi > fs.scanned {
		b, err := st.GetRange(logKey(fn, e), int(fs.scanned)*slotSize, int(hi-fs.scanned)*slotSize)
		if err != nil {
			return false
		}
		for i := 0; i < len(b)/slotSize; i++ {
			if v := slotAt(b, i); v != 0 {
				fs.open = append(fs.open, openSlot{fs.scanned + int64(i), v, now})
			}
		}
		fs.scanned += int64(len(b) / slotSize)
	}
	requeued = q.judge(fn, fs, e, now)
	restored, compact := q.checkpoint(fn, fs, e, now, hi)
	if compact && q.seal(fn, fs, e) == nil {
		return true
	}
	return requeued || restored
}

// judge retires this handle's open slots of epoch e that are acked and
// puts back the ones that are due, reporting whether it put any back.
func (q *Queue) judge(fn string, fs *fnState, e int64, now time.Time) (requeued bool) {
	if len(fs.open) == 0 {
		return false
	}
	st := q.cfg.Store
	keys := make([]string, len(fs.open))
	for i, o := range fs.open {
		id, _ := unpackSlot(o.slot)
		keys[i] = leaseKey(id)
	}
	leases, err := kvs.MGet(st, keys)
	if err != nil {
		return false
	}
	// Lease-free slots are acked or due. Items are read after leases, and
	// ack deletes the item before the lease, so a lease-free slot whose
	// item is present was not acked.
	var free []int
	keys = keys[:0]
	for i, o := range fs.open {
		if leases[i] == nil {
			id, _ := unpackSlot(o.slot)
			free = append(free, i)
			keys = append(keys, itemKey(id))
		}
	}
	items, err := kvs.MGet(st, keys)
	if err != nil {
		return false
	}
	drop := make(map[int]bool, len(free))
	for j, i := range free {
		o := fs.open[i]
		if items[j] == nil {
			drop[i] = true
			continue
		}
		id, gen := unpackSlot(o.slot)
		att, due := q.dueAttempt(id, gen, now.Sub(o.seen) >= q.leaseTTL())
		if !due {
			continue
		}
		// Another host's sweep may have put it back already and zeroed
		// the slot.
		b, err := st.GetRange(logKey(fn, e), int(o.pos)*slotSize, slotSize)
		if err != nil {
			continue
		}
		if len(b) != slotSize || slotAt(b, 0) != o.slot {
			drop[i] = true
			continue
		}
		// Holding the sweep lock, no seal can close e under this append.
		if _, err := st.Append(logKey(fn, e), slotBytes(packSlot(id, att))); err != nil {
			continue
		}
		st.Incr(readyKey(fn, e), 1)
		q.ring(fs)
		q.redelivered.Add(1)
		requeued = true
		st.SetRange(logKey(fn, e), int(o.pos)*slotSize, make([]byte, slotSize))
		drop[i] = true
	}
	kept := fs.open[:0]
	for i, o := range fs.open {
		if !drop[i] {
			kept = append(kept, o)
		}
	}
	fs.open = kept
	return requeued
}

// dueAttempt decides whether a lease-free, unacked item is due for
// redelivery, returning its attempt count. An attempt count above the
// slot's generation means a consumer leased and started it since the slot
// was written, so its lease or backoff lapsed. An equal count means no
// consumer got that far: a claimer between its ticket and its lease is
// given one lease TTL (stale), after which it is presumed dead.
//
// A claimer leases before it counts its attempt, so the lease is read
// again after the count: a claim that landed since the sweep's first
// lease read shows up there. The item is read last, as ack deletes it
// before the lease.
func (q *Queue) dueAttempt(id uint64, gen int64, stale bool) (int64, bool) {
	st := q.cfg.Store
	att, err := st.Incr(attemptKey(id), 0)
	if err != nil {
		return 0, false
	}
	due := att > gen || stale
	if due {
		if lease, err := st.Get(leaseKey(id)); err != nil || lease != nil {
			return 0, false
		}
	} else if att > 0 {
		return 0, false
	}
	// A zero count may be one the read above recreated after an ack.
	blob, err := st.Get(itemKey(id))
	if err != nil {
		return 0, false
	}
	if blob == nil {
		// Acked meanwhile: drop the recreated counter again as ack does.
		st.Delete(attemptKey(id))
		return 0, false
	}
	return att, due
}

// checkpoint moves this handle's mark on epoch e once per lease TTL,
// holding the sweep lock. It restores permits lost between a log append
// and its permit (a submitter that died between the two, or a failed
// permit write): if no ticket was taken for a whole lease TTL while slots
// appended before the mark wait unticketed and no permit is left, those
// slots get permits. A claimer that held its permit that long without a
// ticket is presumed dead. compact reports that the log has reached
// sealSlots and this handle has seen the epoch for a lease TTL.
func (q *Queue) checkpoint(fn string, fs *fnState, e int64, now time.Time, hi int64) (restored, compact bool) {
	if !fs.markAt.IsZero() && now.Sub(fs.markAt) < q.leaseTTL() {
		return false, false
	}
	st := q.cfg.Store
	n, err := st.Len(logKey(fn, e))
	if err != nil {
		return false, false
	}
	slots := int64(n / slotSize)
	if !fs.markAt.IsZero() && hi == fs.markHead && hi < fs.markLen {
		if r, err := st.Incr(readyKey(fn, e), 0); err == nil && r <= live {
			_, err = st.Incr(readyKey(fn, e), fs.markLen-hi)
			restored = err == nil
		}
	}
	fs.markAt, fs.markHead, fs.markLen = now, hi, slots
	return restored, slots >= sealSlots && now.Sub(fs.epochAt) >= q.leaseTTL()
}

// advance finishes sealing fn's epoch e under the sweep lock, unless
// another sweep already moved fn past it, and returns the current epoch.
func (q *Queue) advance(fn string, fs *fnState, e int64) (int64, error) {
	fs.mu.Lock() // seal reads and resets the sweep's bookkeeping
	defer fs.mu.Unlock()
	st := q.cfg.Store
	tok, err := st.Lock(claimKey(fn), true, q.leaseTTL())
	if err != nil {
		return 0, err
	}
	defer st.Unlock(claimKey(fn), tok)
	cur, err := st.Incr(epochKey(fn), 0)
	if err != nil || cur != e {
		return cur, err
	}
	if err := q.seal(fn, fs, e); err != nil {
		return 0, err
	}
	return e + 1, nil
}

// seal compacts fn's ready log, holding the sweep lock: it closes epoch e
// and opens e+1 holding only e's unretired slots. Ticketed slots whose item
// is still present (in flight, in backoff, or not yet leased) are carried
// ticketed, unticketed ones carried with a permit each; retired slots are
// left behind. The log length and head cursor at the seal are recorded, so
// a submitter whose permit found e sealed knows whether its slot was
// carried, and a sweep that finds e sealed but not advanced redoes the
// same carry. Epoch 0 is never written and only ever sealed empty, which
// opens epoch 1. Keys of e-1 are deleted first, by when any submitter
// still using e-1 has had a whole epoch to finish; its log goes last, so a
// late submitter that finds the seal record also appended to the original
// log and may trust its position.
func (q *Queue) seal(fn string, fs *fnState, e int64) error {
	st := q.cfg.Store
	if e > 0 {
		for _, k := range []string{readyKey(fn, e-1), headKey(fn, e-1), sealKey(fn, e-1), logKey(fn, e-1)} {
			st.Delete(k)
		}
	}
	var hc, n int64
	if b, err := st.Get(sealKey(fn, e)); err != nil {
		return err
	} else if b != nil {
		hc, n = parseSeal(b)
	} else {
		r, err := st.Incr(readyKey(fn, e), 0)
		if err == nil && r > live/2 {
			_, err = st.Incr(readyKey(fn, e), -live)
		}
		if err != nil {
			return err
		}
		h, err := st.Incr(headKey(fn, e), 0)
		if err == nil && h <= live/2 {
			h, err = st.Incr(headKey(fn, e), live)
		}
		if err != nil {
			return err
		}
		ln, err := st.Len(logKey(fn, e))
		if err != nil {
			return err
		}
		hc, n = h-live, int64(ln/slotSize)
		if err := st.Set(sealKey(fn, e), []byte(fmt.Sprintf("%d %d", hc, n))); err != nil {
			return err
		}
	}
	var ticketed, ready []byte
	if n > 0 {
		win, err := st.GetRange(logKey(fn, e), 0, int(n)*slotSize)
		if err != nil {
			return err
		}
		// Ticketed slots this handle's sweep saw retired need no item read.
		known, open := int64(0), map[int64]bool{}
		if fs.swept == e {
			known = fs.scanned
			for _, o := range fs.open {
				open[o.pos] = true
			}
		}
		var cand []uint64
		var keys []string
		for i := int64(0); i < n; i++ {
			v := slotAt(win, int(i))
			switch {
			case v == 0:
			case i >= hc:
				ready = binary.LittleEndian.AppendUint64(ready, v)
			case i >= known || open[i]:
				id, _ := unpackSlot(v)
				cand = append(cand, v)
				keys = append(keys, itemKey(id))
			}
		}
		items, err := kvs.MGet(st, keys)
		if err != nil {
			return err
		}
		for j, v := range cand {
			if items[j] != nil {
				ticketed = binary.LittleEndian.AppendUint64(ticketed, v)
			}
		}
	}
	next := e + 1
	if err := st.Set(logKey(fn, next), append(ticketed, ready...)); err != nil {
		return err
	}
	if err := setCounter(st, headKey(fn, next), int64(len(ticketed)/slotSize)); err != nil {
		return err
	}
	if err := setCounter(st, readyKey(fn, next), live+int64(len(ready)/slotSize)); err != nil {
		return err
	}
	if _, err := st.Incr(epochKey(fn), 1); err != nil {
		return err
	}
	fs.epoch.Store(next)
	fs.swept = 0 // the next sweep reads the new epoch from its start
	for i := 0; i < len(ready)/slotSize && i < cap(fs.wake); i++ {
		q.ring(fs)
	}
	return nil
}

// setCounter sets counter k to v. Only a holder of the sweep lock writes
// the counters of an epoch not yet opened, so read-then-add is exact.
func setCounter(st kvs.Store, k string, v int64) error {
	cur, err := st.Incr(k, 0)
	if err == nil && cur != v {
		_, err = st.Incr(k, v-cur)
	}
	return err
}

// parseSeal reads a seal record: the head cursor and log length, in
// slots, at the moment the epoch was sealed.
func parseSeal(b []byte) (head, n int64) {
	fmt.Sscan(string(b), &head, &n)
	return head, n
}

// runItem executes one claimed delivery end to end.
func (q *Queue) runItem(fn string, it item, att int) {
	st := q.cfg.Store
	id := it.Rec.ID

	// A prior delivery may have completed but crashed before acking; never
	// re-execute a call that already has a result. A first attempt has no
	// prior delivery: executions start only after the attempt count.
	if att > 1 {
		if blob, err := st.Get(resultKey(id)); err == nil && blob != nil {
			q.ack(fn, id)
			return
		}
	}

	q.recordWait(fn, it)
	out, ret, execErr := q.exec.ExecuteQueued(fn, it.Rec.Input, obsv.TraceID(it.Rec.TraceID))
	if errors.Is(execErr, ErrConsumerDead) || q.dead() {
		// Crashed mid-execution: write nothing. The lease expires on the
		// tier's clock and the item is redelivered.
		return
	}
	if execErr != nil {
		if att <= q.retryMax() {
			// Re-arm the lease as the backoff timer: the item stays
			// invisible to claims until the backoff elapses tier-side.
			st.SetEx(leaseKey(id), []byte("backoff"), q.backoff(att))
			return
		}
		q.deadLetter(fn, it, execErr)
		return
	}

	rec := it.Rec
	rec.Status = mbus.CallSucceeded
	rec.Output = out
	rec.ReturnCode = ret
	// Static chain: enqueue downstream before recording the result, so a
	// result carrying a ChildID always refers to an enqueued item.
	if next := q.chainOf(fn); next != "" && next != fn {
		if child, err := q.submit(next, out, id, it.Rec.TraceID); err == nil {
			rec.ChildID = child
		} else {
			rec.Err = fmt.Sprintf("chain to %s: %v", next, err)
		}
	}
	q.finish(fn, rec)
}

// recordWait attributes the enqueue→execution delay to the submit-side
// trace as a queue.wait span.
func (q *Queue) recordWait(fn string, it item) {
	if q.cfg.Tracer == nil || it.Rec.TraceID == 0 {
		return
	}
	tr, created := q.cfg.Tracer.Join(obsv.TraceID(it.Rec.TraceID), q.cfg.Host, fn)
	if tr == nil {
		return
	}
	start := time.Unix(0, it.EnqueuedAt)
	tr.RecordSpan(q.cfg.Host, "queue.wait", fn, start, q.cfg.Clock.Now().Sub(start), 0, false)
	if created {
		defer q.cfg.Tracer.Finish(tr)
	}
}

// chainOf reads fn's static downstream ("" = none).
func (q *Queue) chainOf(fn string) string {
	blob, err := q.cfg.Store.Get(chainKey(fn))
	if err != nil || len(blob) == 0 {
		return ""
	}
	return string(blob)
}

// finish records a terminal result (first writer wins) and acks the item.
func (q *Queue) finish(fn string, rec mbus.CallRecord) {
	st := q.cfg.Store
	// First-writer-wins: a redelivered zombie completing after the real
	// completer finds the result present and only acks. The lease protocol
	// makes two simultaneous completers a presumed-dead-holder anomaly; the
	// client's call-table view is strictly first-writer regardless.
	if blob, err := st.Get(resultKey(rec.ID)); err != nil || blob != nil {
		q.ack(fn, rec.ID)
		return
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		rec.Output = nil
		rec.Err = fmt.Sprintf("queue: result marshal: %v", err)
		blob, _ = json.Marshal(rec)
	}
	if st.Set(resultKey(rec.ID), blob) == nil {
		q.completed.Add(1)
	}
	q.ack(fn, rec.ID)
}

// deadLetter parks an undeliverable item in fn's dead-letter set with a
// CallDeadLettered result so awaiters unblock.
func (q *Queue) deadLetter(fn string, it item, cause error) {
	rec := it.Rec
	rec.Status = mbus.CallDeadLettered
	rec.ReturnCode = -1
	rec.Err = cause.Error()
	q.cfg.Store.SAdd(deadKey(fn), strconv.FormatUint(rec.ID, 10))
	q.deadLettered.Add(1)
	q.finish(fn, rec)
}

// ack retires a delivered item: out of the pending set (decrementing the
// backpressure depth exactly once, guarded by SRem's removed flag), then
// the item, lease and attempt keys dropped. The item goes before the lease,
// so a sweep that finds the lease gone finds the item gone too and never
// mistakes an acked item for a lapsed claim. The result record stays for
// awaiters; the sweep retires the item's log slot.
func (q *Queue) ack(fn string, id uint64) {
	st := q.cfg.Store
	if removed, err := st.SRem(pendingKey(fn), strconv.FormatUint(id, 10)); err == nil && removed {
		st.Incr(depthKey(fn), -1)
	}
	st.Delete(itemKey(id))
	st.Delete(leaseKey(id))
	st.Delete(attemptKey(id))
}

// Result reads a call's terminal record, reporting whether one exists yet.
func (q *Queue) Result(id uint64) (mbus.CallRecord, bool, error) {
	blob, err := q.cfg.Store.Get(resultKey(id))
	if err != nil {
		return mbus.CallRecord{}, false, err
	}
	if blob == nil {
		return mbus.CallRecord{}, false, nil
	}
	var rec mbus.CallRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return mbus.CallRecord{}, false, err
	}
	return rec, true, nil
}

// Await polls until the call reaches a terminal result, returning its
// record. timeout <= 0 waits forever; expiry returns ErrAwaitTimeout. An id
// with neither a result, a pending item, nor delivery bookkeeping is
// reported as ErrUnknownCall.
func (q *Queue) Await(id uint64, timeout time.Duration) (mbus.CallRecord, error) {
	st := q.cfg.Store
	var deadline time.Time
	if timeout > 0 {
		deadline = q.cfg.Clock.Now().Add(timeout)
	}
	for {
		rec, ok, err := q.Result(id)
		if err != nil {
			return mbus.CallRecord{}, err
		}
		if ok {
			return rec, nil
		}
		if blob, err := st.Get(itemKey(id)); err == nil && blob == nil {
			// No result and no item: either never submitted, or acked with
			// its result lost — both are unknown to the client. A consumer
			// may have committed the result and acked (deleting item and
			// attempt) since the miss above, so read the result once more.
			if att, aerr := st.Incr(attemptKey(id), 0); aerr == nil && att == 0 {
				st.Delete(attemptKey(id)) // the probe above recreated it
				if rec, ok, err := q.Result(id); err != nil || ok {
					return rec, err
				}
				return mbus.CallRecord{}, fmt.Errorf("%w: %d", ErrUnknownCall, id)
			}
		}
		if timeout > 0 && !q.cfg.Clock.Now().Before(deadline) {
			return mbus.CallRecord{}, fmt.Errorf("%w: call %d", ErrAwaitTimeout, id)
		}
		q.cfg.Clock.Sleep(q.poll())
	}
}

// Depth reports fn's current queued-plus-in-flight item count.
func (q *Queue) Depth(fn string) (int64, error) {
	return q.cfg.Store.Incr(depthKey(fn), 0)
}

// DeadLetters lists fn's dead-lettered call ids.
func (q *Queue) DeadLetters(fn string) ([]uint64, error) {
	members, err := q.cfg.Store.SMembers(deadKey(fn))
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, len(members))
	for _, m := range members {
		if id, err := strconv.ParseUint(m, 10, 64); err == nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Functions lists the functions this handle has consumed or submitted for.
func (q *Queue) Functions() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.fns))
	for fn := range q.fns {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots this handle's activity counters. Redelivered counts the
// items this handle's sweep put back for another delivery.
type Stats struct {
	Enqueued     int64
	Redelivered  int64
	DeadLettered int64
	Completed    int64
}

// Stats reports this handle's counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Enqueued:     q.enqueued.Load(),
		Redelivered:  q.redelivered.Load(),
		DeadLettered: q.deadLettered.Load(),
		Completed:    q.completed.Load(),
	}
}

// Instrument registers the queue series with reg, labelled by host. The
// depth gauge reads the tier at scrape time (one counter read per known
// function), so it reflects the shared queue, not this handle.
func (q *Queue) Instrument(reg *obsv.Registry, host string) {
	l := map[string]string{"host": host}
	reg.CounterFunc("faasm_queue_enqueued_total", "async calls accepted into the durable queue by this host", l, q.enqueued.Load)
	reg.CounterFunc("faasm_queue_redelivered_total", "items this host's sweep put back for redelivery (lapsed leases, finished retry backoffs, claims that died before leasing)", l, q.redelivered.Load)
	reg.CounterFunc("faasm_queue_dead_lettered_total", "items parked in a dead-letter set by this host after exhausting deliveries", l, q.deadLettered.Load)
	reg.GaugeFunc("faasm_queue_depth", "queued plus in-flight items across this host's known functions (tier-side view)", l, q.tierDepth)
}

func (q *Queue) tierDepth() int64 {
	var total int64
	for _, fn := range q.Functions() {
		if d, err := q.Depth(fn); err == nil {
			total += d
		}
	}
	return total
}

// Close stops this host's consumer loops (waiting them out) and refuses
// further Submits. Tier-side queue state is untouched: other hosts keep
// consuming, and items this host had in flight redeliver after lease
// expiry.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.stop)
	q.mu.Unlock()
	q.wg.Wait()
}
