package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
)

// opKind names one global-tier operation for the per-kind op counts.
type opKind int

const (
	opGet opKind = iota
	opSet
	opGetRange
	opSetRange
	opAppend
	opLen
	opDelete
	opSetEx
	opTTL
	opPersist
	opSAdd
	opSRem
	opSMembers
	opIncr
	opLock
	opUnlock
	opMGet
	opMSet
	opMSetEx
	opGetRanges
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"get", "set", "getrange", "setrange", "append", "len", "delete", "setex",
	"ttl", "persist", "sadd", "srem", "smembers", "incr", "lock", "unlock",
	"mget", "mset", "msetex", "getranges",
}

// tierProbe times and counts every operation the host issues to the global
// tier. It is installed only in traced runs, as frt.Config.Store.
//
// It keeps every optional interface the ring offers — kvs.Batcher above
// all, whose absence would send batched reads and writes down the
// one-op-per-key fallback — so the traced run measures the same path as the
// untraced one. A batch counts as one operation, as kvstest.CountingStore
// counts it: the round trip is the unit of tier work.
type tierProbe struct {
	inner  *shardkvs.Ring
	counts [numOpKinds]atomic.Int64
	bytes  atomic.Int64
	busy   atomic.Int64 // nanoseconds inside the tier, summed over callers

	mu   sync.Mutex
	durs []time.Duration
}

func newTierProbe(inner *shardkvs.Ring) *tierProbe { return &tierProbe{inner: inner} }

// tierStats is a snapshot of the probe's counters.
type tierStats struct {
	counts [numOpKinds]int64
	bytes  int64
	busy   time.Duration
	durs   []time.Duration
}

func (s tierStats) ops() int64 {
	var n int64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// take returns the counters accumulated since the last take and zeroes them.
func (p *tierProbe) take() tierStats {
	var s tierStats
	for k := range p.counts {
		s.counts[k] = p.counts[k].Swap(0)
	}
	s.bytes = p.bytes.Swap(0)
	s.busy = time.Duration(p.busy.Swap(0))
	p.mu.Lock()
	s.durs, p.durs = p.durs, nil
	p.mu.Unlock()
	return s
}

func (p *tierProbe) done(k opKind, start time.Time, n int) {
	d := time.Since(start)
	p.counts[k].Add(1)
	p.bytes.Add(int64(n))
	p.busy.Add(int64(d))
	p.mu.Lock()
	p.durs = append(p.durs, d)
	p.mu.Unlock()
}

func (p *tierProbe) Get(key string) ([]byte, error) {
	t := time.Now()
	v, err := p.inner.Get(key)
	p.done(opGet, t, len(v))
	return v, err
}

func (p *tierProbe) Set(key string, val []byte) error {
	t := time.Now()
	err := p.inner.Set(key, val)
	p.done(opSet, t, len(val))
	return err
}

func (p *tierProbe) GetRange(key string, off, n int) ([]byte, error) {
	t := time.Now()
	v, err := p.inner.GetRange(key, off, n)
	p.done(opGetRange, t, len(v))
	return v, err
}

func (p *tierProbe) SetRange(key string, off int, val []byte) error {
	t := time.Now()
	err := p.inner.SetRange(key, off, val)
	p.done(opSetRange, t, len(val))
	return err
}

func (p *tierProbe) Append(key string, val []byte) (int, error) {
	t := time.Now()
	n, err := p.inner.Append(key, val)
	p.done(opAppend, t, len(val))
	return n, err
}

func (p *tierProbe) Len(key string) (int, error) {
	t := time.Now()
	n, err := p.inner.Len(key)
	p.done(opLen, t, 0)
	return n, err
}

func (p *tierProbe) Delete(key string) error {
	t := time.Now()
	err := p.inner.Delete(key)
	p.done(opDelete, t, 0)
	return err
}

func (p *tierProbe) SetEx(key string, val []byte, ttl time.Duration) error {
	t := time.Now()
	err := p.inner.SetEx(key, val, ttl)
	p.done(opSetEx, t, len(val))
	return err
}

func (p *tierProbe) TTL(key string) (time.Duration, error) {
	t := time.Now()
	d, err := p.inner.TTL(key)
	p.done(opTTL, t, 0)
	return d, err
}

func (p *tierProbe) Persist(key string) (bool, error) {
	t := time.Now()
	ok, err := p.inner.Persist(key)
	p.done(opPersist, t, 0)
	return ok, err
}

func (p *tierProbe) SAdd(key, member string) (bool, error) {
	t := time.Now()
	ok, err := p.inner.SAdd(key, member)
	p.done(opSAdd, t, len(member))
	return ok, err
}

func (p *tierProbe) SRem(key, member string) (bool, error) {
	t := time.Now()
	ok, err := p.inner.SRem(key, member)
	p.done(opSRem, t, len(member))
	return ok, err
}

func (p *tierProbe) SMembers(key string) ([]string, error) {
	t := time.Now()
	ms, err := p.inner.SMembers(key)
	n := 0
	for _, m := range ms {
		n += len(m)
	}
	p.done(opSMembers, t, n)
	return ms, err
}

func (p *tierProbe) Incr(key string, delta int64) (int64, error) {
	t := time.Now()
	v, err := p.inner.Incr(key, delta)
	p.done(opIncr, t, 0)
	return v, err
}

func (p *tierProbe) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	t := time.Now()
	tok, err := p.inner.Lock(key, write, ttl)
	p.done(opLock, t, 0)
	return tok, err
}

func (p *tierProbe) Unlock(key string, token uint64) error {
	t := time.Now()
	err := p.inner.Unlock(key, token)
	p.done(opUnlock, t, 0)
	return err
}

// MGet implements kvs.Batcher through the wrapped store's native batch path.
func (p *tierProbe) MGet(keys []string) ([][]byte, error) {
	t := time.Now()
	vs, err := p.inner.MGet(keys)
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	p.done(opMGet, t, n)
	return vs, err
}

// MSet implements kvs.Batcher.
func (p *tierProbe) MSet(pairs []kvs.Pair) error {
	t := time.Now()
	err := p.inner.MSet(pairs)
	p.done(opMSet, t, pairBytes(pairs))
	return err
}

// MSetEx implements kvs.Batcher.
func (p *tierProbe) MSetEx(pairs []kvs.Pair, ttl time.Duration) error {
	t := time.Now()
	err := p.inner.MSetEx(pairs, ttl)
	p.done(opMSetEx, t, pairBytes(pairs))
	return err
}

// GetRanges implements kvs.Batcher.
func (p *tierProbe) GetRanges(key string, ranges []kvs.Range) ([][]byte, error) {
	t := time.Now()
	vs, err := p.inner.GetRanges(key, ranges)
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	p.done(opGetRanges, t, n)
	return vs, err
}

// AllKeys implements kvs.Lister. Enumeration serves shard migration only,
// so it is forwarded uncounted.
func (p *tierProbe) AllKeys() ([]kvs.KeyInfo, error) { return p.inner.AllKeys() }

// Close implements io.Closer.
func (p *tierProbe) Close() error { return p.inner.Close() }

func pairBytes(pairs []kvs.Pair) int {
	n := 0
	for _, pr := range pairs {
		n += len(pr.Val)
	}
	return n
}

var (
	_ kvs.Store   = (*tierProbe)(nil)
	_ kvs.Batcher = (*tierProbe)(nil)
	_ kvs.Lister  = (*tierProbe)(nil)
	_ io.Closer   = (*tierProbe)(nil)
)
