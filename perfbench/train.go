package main

import (
	"fmt"
	"time"

	"faasm.dev/faasm/internal/ddo"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/workloads/sgd"
)

// train: a closed loop of SGD training jobs (sgd-main chaining HOGWILD
// sgd-update workers). Each job starts from zeroed weights with the dataset
// only in the global tier, so every job pulls its data in bulk and pushes
// weights back; the job's accuracy is checked against a fixed floor.
type train struct {
	params sgd.Params
	ds     *sgd.Dataset
	zero   []byte
}

// trainAccuracyFloor is the accuracy every job must reach (sgd's own
// learning test uses the same bar).
const trainAccuracyFloor = 0.80

func newTrain(seed int64, _ float64) (workload, error) {
	p := sgd.Params{
		Examples:  64 << 10,
		Features:  4096,
		NNZ:       32,
		Epochs:    2,
		Workers:   2,
		LearnRate: 0.1,
		PushEvery: 256,
		Seed:      seed,
	}
	return &train{params: p, ds: sgd.Generate(p), zero: make([]byte, p.Features*8)}, nil
}

func (t *train) host() hostOptions { return hostOptions{} }

// tierSeeder writes the dataset straight into the tier.
type tierSeeder struct{ ring *shardkvs.Ring }

func (s tierSeeder) SetState(key string, val []byte) error { return s.ring.Set(key, val) }

func (t *train) setup(d *deployment) error {
	if err := t.ds.Seed(tierSeeder{d.ring}); err != nil {
		return fmt.Errorf("seed dataset: %w", err)
	}
	register(d, "sgd-update", sgd.WeightUpdate)
	register(d, "sgd-main", sgd.Main)
	_, err := t.job(d)
	return err
}

// reset makes the next job start cold: zeroed weights in the tier and no
// local replica of the dataset or weights on the host.
func (t *train) reset(d *deployment) error {
	if err := d.ring.Set(sgd.KeyWeights, t.zero); err != nil {
		return err
	}
	vals, rows, colptr := ddo.SparseKeys(sgd.KeyX)
	for _, k := range []string{vals, rows, colptr, sgd.KeyY, sgd.KeyWeights} {
		d.inst.State().Evict(k)
	}
	return nil
}

// job runs one training job and returns its wall time; a failed call or an
// accuracy under the floor is an error.
func (t *train) job(d *deployment) (time.Duration, error) {
	if err := t.reset(d); err != nil {
		return 0, err
	}
	start := time.Now()
	_, ret, err := d.inst.Call("sgd-main", sgd.EncodeMain(t.params))
	took := time.Since(start)
	if err != nil || ret != 0 {
		return took, fmt.Errorf("sgd-main: ret=%d err=%v", ret, err)
	}
	w, err := d.ring.Get(sgd.KeyWeights)
	if err != nil {
		return took, err
	}
	if acc := t.ds.Accuracy(w); acc < trainAccuracyFloor {
		return took, fmt.Errorf("accuracy %.3f under the %.2f floor", acc, trainAccuracyFloor)
	}
	return took, nil
}

func (t *train) measure(d *deployment, seconds float64, mem *memMeter, o *outcome) error {
	callsPerJob := 1 + t.params.Workers*t.params.Epochs
	var busy time.Duration
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		took, err := t.job(d)
		o.attempted += callsPerJob
		if err != nil {
			o.failed += callsPerJob
			o.fail("training job: %v", err)
			continue
		}
		o.lat.add(took)
		busy += took
	}
	o.memLive = mem.mark()
	jobs := o.lat.n()
	if busy > 0 {
		o.rate = float64(jobs*callsPerJob) / busy.Seconds()
	}
	p50, _ := o.lat.quantile(0.5)
	o.headline, o.lowerBetter = ms(p50), true
	o.rows = append(o.rows, fmt.Sprintf("job_s          %.4f s (median of %d jobs, %d examples x %d epochs)",
		p50.Seconds(), jobs, t.params.Examples, t.params.Epochs))
	return nil
}
