package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"faasm.dev/faasm/internal/kernels"
)

// kernelsWorkload: the Polybench suite compiled by fcc, deployed with
// RegisterModule and called through frt by a closed loop of at most nproc
// clients, each walking its own seeded order of the suite in whole rounds.
// The wavm interpreter does nearly all the work.
type kernelsWorkload struct {
	suite []kernels.Kernel
	// want is each kernel's expected return code: frt returns a module's
	// main result as an i32, which for these f64 kernels is the low word of
	// the checksum. The full checksum is checked against the native twin
	// once, when the workload is built.
	want   []int32
	orders [][]int
}

func newKernels(seed int64, _ float64) (workload, error) {
	w := &kernelsWorkload{suite: kernels.All()}
	for _, k := range w.suite {
		got, _, err := kernels.RunWavm(k)
		if err != nil {
			return nil, err
		}
		if native := k.Native(k.N); !withinTolerance(got, native) {
			return nil, fmt.Errorf("kernel %s: sandbox %v, native %v", k.Name, got, native)
		}
		w.want = append(w.want, int32(uint32(math.Float64bits(got))))
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < kernelClients(); c++ {
		w.orders = append(w.orders, rng.Perm(len(w.suite)))
	}
	return w, nil
}

// kernelClients is the closed loop's width: at most nproc, at most two.
func kernelClients() int { return min(2, runtime.NumCPU()) }

func kernelFn(k kernels.Kernel) string { return "kernel-" + k.Name }

func (w *kernelsWorkload) host() hostOptions { return hostOptions{} }

func (w *kernelsWorkload) setup(d *deployment) error {
	for _, k := range w.suite {
		mod, err := kernels.CompileKernel(k)
		if err != nil {
			return err
		}
		if err := d.inst.RegisterModule(kernelFn(k), mod); err != nil {
			return err
		}
	}
	// Warm-up: one call per kernel and client, checked.
	for c := 0; c < kernelClients(); c++ {
		for i, k := range w.suite {
			if _, ret, err := d.inst.Call(kernelFn(k), nil); err != nil || ret != w.want[i] {
				return fmt.Errorf("warm-up %s: ret=%d want %d err=%v", k.Name, ret, w.want[i], err)
			}
		}
	}
	return nil
}

func (w *kernelsWorkload) measure(d *deployment, seconds float64, mem *memMeter, o *outcome) error {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range w.orders {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			// Whole rounds only, so every kernel weighs the same in the
			// latency percentiles and the call rate.
			for time.Now().Before(deadline) {
				for _, k := range order {
					t0 := time.Now()
					_, ret, err := d.inst.Call(kernelFn(w.suite[k]), nil)
					lat := time.Since(t0)
					mu.Lock()
					o.attempted++
					if err != nil || ret != w.want[k] {
						o.failed++
					} else {
						o.lat.add(lat)
					}
					mu.Unlock()
				}
			}
		}(w.orders[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	o.memLive = mem.mark()
	o.rate = float64(o.lat.n()) / elapsed.Seconds()
	o.headline, o.lowerBetter = o.rate, false
	return nil
}
