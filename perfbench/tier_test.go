package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/workloads/sgd"
)

// keyCounter is an in-process shard that counts, per operation name, the
// operations touching keys under prefix. It keeps the engine's batch
// support, so the ring above it takes the same paths as over real shards.
type keyCounter struct {
	*kvs.Engine
	prefix string
	mu     sync.Mutex
	ops    map[string]int
}

func (c *keyCounter) note(op string, keys ...string) {
	for _, k := range keys {
		if strings.HasPrefix(k, c.prefix) {
			c.mu.Lock()
			c.ops[op]++
			c.mu.Unlock()
			return
		}
	}
}

func (c *keyCounter) Get(k string) ([]byte, error) { c.note("get", k); return c.Engine.Get(k) }
func (c *keyCounter) Set(k string, v []byte) error { c.note("set", k); return c.Engine.Set(k, v) }
func (c *keyCounter) GetRange(k string, off, n int) ([]byte, error) {
	c.note("getrange", k)
	return c.Engine.GetRange(k, off, n)
}
func (c *keyCounter) SetRange(k string, off int, v []byte) error {
	c.note("setrange", k)
	return c.Engine.SetRange(k, off, v)
}
func (c *keyCounter) Len(k string) (int, error) { c.note("len", k); return c.Engine.Len(k) }
func (c *keyCounter) MGet(keys []string) ([][]byte, error) {
	c.note("mget", keys...)
	return c.Engine.MGet(keys)
}
func (c *keyCounter) MSet(pairs []kvs.Pair) error {
	for _, p := range pairs {
		c.note("mset", p.Key)
	}
	return c.Engine.MSet(pairs)
}
func (c *keyCounter) GetRanges(k string, rs []kvs.Range) ([][]byte, error) {
	c.note("getranges", k)
	return c.Engine.GetRanges(k, rs)
}

// trainOps runs one small, single-worker sgd job on a host over a
// two-shard in-process ring and returns the shard-side op counts on sgd/
// keys. With probe set, the host's tier is the benchmark's tierProbe.
func trainOps(t *testing.T, probe bool) map[string]int {
	t.Helper()
	ring := shardkvs.New(shardkvs.Options{})
	var shards []*keyCounter
	for _, id := range []string{"a", "b"} {
		c := &keyCounter{Engine: kvs.NewEngine(), prefix: "sgd/", ops: map[string]int{}}
		shards = append(shards, c)
		if err := ring.Attach(id, c); err != nil {
			t.Fatal(err)
		}
	}
	p := sgd.Params{Examples: 2048, Features: 512, NNZ: 16, Epochs: 2, Workers: 1, LearnRate: 0.1, PushEvery: 64, Seed: 7}
	ds := sgd.Generate(p)
	if err := ds.Seed(tierSeeder{ring}); err != nil {
		t.Fatal(err)
	}
	var store kvs.Store = ring
	if probe {
		store = newTierProbe(ring)
	}
	inst := frt.New(frt.Config{Store: store, TraceSample: -1})
	defer inst.Shutdown()
	inst.RegisterNative("sgd-update", hostapi.WrapGuest(sgd.WeightUpdate))
	inst.RegisterNative("sgd-main", hostapi.WrapGuest(sgd.Main))
	for _, c := range shards {
		c.mu.Lock()
		clear(c.ops)
		c.mu.Unlock()
	}
	if _, ret, err := inst.Call("sgd-main", sgd.EncodeMain(p)); err != nil || ret != 0 {
		t.Fatalf("sgd-main: ret=%d err=%v", ret, err)
	}
	total := map[string]int{}
	for _, c := range shards {
		for op, n := range c.ops {
			total[op] += n
		}
	}
	return total
}

// TestTierProbeKeepsBatchPath: the traced run's tier wrapper must not change
// what reaches the shards. Dropping kvs.Batcher, for one, would turn each
// batched chunk read into one GETRANGE per chunk.
func TestTierProbeKeepsBatchPath(t *testing.T) {
	plain := trainOps(t, false)
	probed := trainOps(t, true)
	if plain["getranges"] == 0 {
		t.Fatalf("the job issued no batched reads (%v); the test checks nothing", plain)
	}
	if len(plain) != len(probed) {
		t.Fatalf("ops on sgd/ keys differ: plain %v, probed %v", plain, probed)
	}
	for op, n := range plain {
		if probed[op] != n {
			t.Fatalf("ops on sgd/ keys differ: plain %v, probed %v", plain, probed)
		}
	}
}

// TestTierProbeCounts: every operation is counted once, a batch as one.
func TestTierProbeCounts(t *testing.T) {
	ring := shardkvs.New(shardkvs.Options{})
	if err := ring.Attach("a", kvs.NewEngine()); err != nil {
		t.Fatal(err)
	}
	p := newTierProbe(ring)
	p.Set("k", []byte("hello"))
	p.Get("k")
	kvs.MGet(p, []string{"k", "k", "missing"})
	kvs.GetRanges(p, "k", []kvs.Range{{Off: 0, N: 2}, {Off: 2, N: 2}})
	tok, err := p.Lock("l", true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Unlock("l", tok)
	st := p.take()
	if st.ops() != 6 || st.counts[opMGet] != 1 || st.counts[opGetRanges] != 1 || len(st.durs) != 6 {
		t.Fatalf("counts %v durs %d", st.counts, len(st.durs))
	}
	if st.bytes != 5+5+10+4 {
		t.Fatalf("bytes %d", st.bytes)
	}
	if st := p.take(); st.ops() != 0 {
		t.Fatal("take did not reset the counters")
	}
}
