package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"faasm.dev/faasm/internal/workloads/inference"
)

// serve: inference serving through the synchronous entry point faasmd's
// HTTP handler uses (frt.Instance.Call). serveCallers closed-loop callers
// keep the warm invocation path busy; beside them a fixed-cadence stream
// sends each request to a fresh per-user function, whose first call
// restores it from its Proto-Faaslet (the paper's Fig 7 cold starts).
//
// The loop is closed: on a 2-vCPU VM, an open-loop version (Poisson
// arrivals, p99 from due time, highest rate on a ladder under a p99 limit)
// moved by 50-200% between seeds, beyond any bound it could carry (see
// METRICS.md).
type serve struct {
	weights []byte
	images  [][]byte
	want    []byte  // expected class per image
	orders  [][]int // per caller: its seeded order over the images
	fresh   []string
}

const (
	serveFn      = "infer"
	serveImages  = 256
	serveCallers = 4
	// serveColdEvery is the fresh-function stream's cadence.
	serveColdEvery = 20 * time.Millisecond
	serveWarmCalls = 400
)

func newServe(seed int64, seconds float64) (workload, error) {
	s := &serve{weights: inference.GenerateWeights(seed)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < serveImages; i++ {
		img := inference.GenerateImage(rng.Int63())
		s.images = append(s.images, img)
		s.want = append(s.want, byte(inference.Classify(s.weights, img)))
	}
	for c := 0; c <= serveCallers; c++ { // the last order feeds the fresh stream
		s.orders = append(s.orders, rng.Perm(serveImages))
	}
	n := int(time.Duration(seconds*float64(time.Second))/serveColdEvery) + 1
	for u := 0; u < n; u++ {
		s.fresh = append(s.fresh, fmt.Sprintf("infer-u%d", u))
	}
	return s, nil
}

func (s *serve) host() hostOptions { return hostOptions{} }

func (s *serve) setup(d *deployment) error {
	if err := d.ring.Set(inference.KeyWeights, s.weights); err != nil {
		return err
	}
	guest := inference.Guest(inference.Config{ComputePasses: 1})
	for _, fn := range append([]string{serveFn}, s.fresh...) {
		register(d, fn, guest)
		if err := d.inst.GenerateProto(fn, nil); err != nil {
			return fmt.Errorf("proto %s: %w", fn, err)
		}
	}
	// Warm the shared function's pool and the host's weights replica.
	for i := 0; i < serveWarmCalls; i++ {
		if !s.call(d, serveFn, i%serveImages) {
			return fmt.Errorf("warm-up call %d failed", i)
		}
	}
	return nil
}

// call serves one request and checks its class.
func (s *serve) call(d *deployment, fn string, img int) bool {
	out, ret, err := d.inst.Call(fn, s.images[img])
	return err == nil && ret == 0 && len(out) == 1 && out[0] == s.want[img]
}

func (s *serve) measure(d *deployment, seconds float64, mem *memMeter, o *outcome) error {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// loop runs one caller: next(i) names the i-th request's function, or
	// "" when the caller is done; pace waits before each request.
	loop := func(order []int, next func(i int) string, pace func(i int)) {
		defer wg.Done()
		var lat timing
		attempted, failed := 0, 0
		for i := 0; time.Now().Before(deadline); i++ {
			fn := next(i)
			if fn == "" {
				break
			}
			pace(i)
			img := order[i%len(order)]
			t0 := time.Now()
			ok := s.call(d, fn, img)
			took := time.Since(t0)
			attempted++
			if !ok {
				failed++
				continue
			}
			lat.add(took)
		}
		mu.Lock()
		o.attempted += attempted
		o.failed += failed
		for _, l := range lat.d {
			o.lat.add(l)
		}
		mu.Unlock()
	}
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go loop(s.orders[c], func(int) string { return serveFn }, func(int) {})
	}
	wg.Add(1)
	go loop(s.orders[serveCallers], func(i int) string {
		if i >= len(s.fresh) {
			return ""
		}
		return s.fresh[i]
	}, func(i int) {
		time.Sleep(time.Until(start.Add(time.Duration(i) * serveColdEvery)))
	})
	wg.Wait()
	elapsed := time.Since(start)
	o.memLive = mem.mark()
	o.rate = float64(o.lat.n()) / elapsed.Seconds()
	o.headline, o.lowerBetter = o.rate, false
	return nil
}
