package main

import (
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/hostapi"
)

// stateProbe accounts the state-API traffic of native guests: calls, time
// inside them, and bytes read and written. It wraps the hostapi.API each
// guest is handed, and is installed only in traced runs.
type stateProbe struct {
	calls      atomic.Int64
	nanos      atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

// stateStats is a snapshot of a stateProbe.
type stateStats struct {
	calls, readBytes, writeBytes int64
	busy                         time.Duration
}

func (p *stateProbe) take() stateStats {
	return stateStats{
		calls:      p.calls.Swap(0),
		busy:       time.Duration(p.nanos.Swap(0)),
		readBytes:  p.readBytes.Swap(0),
		writeBytes: p.writeBytes.Swap(0),
	}
}

// register deploys a native guest on the host, wrapped when the deployment
// is traced.
func register(d *deployment, fn string, g hostapi.Guest) {
	if d.state != nil {
		inner, p := g, d.state
		g = func(api hostapi.API) (int32, error) {
			return inner(&stateAPI{API: api, p: p})
		}
	}
	d.inst.RegisterNative(fn, hostapi.WrapGuest(g))
}

// stateAPI times the state calls of one guest execution.
type stateAPI struct {
	hostapi.API
	p *stateProbe
}

func (a *stateAPI) note(start time.Time, read, written int) {
	a.p.calls.Add(1)
	a.p.nanos.Add(int64(time.Since(start)))
	if read > 0 {
		a.p.readBytes.Add(int64(read))
	}
	if written > 0 {
		a.p.writeBytes.Add(int64(written))
	}
}

func (a *stateAPI) StateView(key string, size int) ([]byte, error) {
	t := time.Now()
	b, err := a.API.StateView(key, size)
	a.note(t, len(b), 0)
	return b, err
}

func (a *stateAPI) StateViewChunk(key string, off, n int) ([]byte, error) {
	t := time.Now()
	b, err := a.API.StateViewChunk(key, off, n)
	a.note(t, len(b), 0)
	return b, err
}

func (a *stateAPI) StatePrefetch(key string, ranges [][2]int) error {
	t := time.Now()
	err := a.API.StatePrefetch(key, ranges)
	n := 0
	for _, r := range ranges {
		n += r[1]
	}
	a.note(t, n, 0)
	return err
}

func (a *stateAPI) StatePush(key string) error {
	t := time.Now()
	err := a.API.StatePush(key)
	size, _ := a.API.StateSize(key)
	a.note(t, 0, size)
	return err
}

func (a *stateAPI) StatePushChunk(key string, off, n int) error {
	t := time.Now()
	err := a.API.StatePushChunk(key, off, n)
	a.note(t, 0, n)
	return err
}

func (a *stateAPI) StatePull(key string) error {
	t := time.Now()
	err := a.API.StatePull(key)
	size, _ := a.API.StateSize(key)
	a.note(t, size, 0)
	return err
}

func (a *stateAPI) StateAppend(key string, data []byte) error {
	t := time.Now()
	err := a.API.StateAppend(key, data)
	a.note(t, 0, len(data))
	return err
}

func (a *stateAPI) StateReadAll(key string) ([]byte, error) {
	t := time.Now()
	b, err := a.API.StateReadAll(key)
	a.note(t, len(b), 0)
	return b, err
}

func (a *stateAPI) StateWriteAll(key string, data []byte) error {
	t := time.Now()
	err := a.API.StateWriteAll(key, data)
	a.note(t, 0, len(data))
	return err
}

func (a *stateAPI) StateSize(key string) (int, error) {
	t := time.Now()
	n, err := a.API.StateSize(key)
	a.note(t, 0, 0)
	return n, err
}

func (a *stateAPI) LockLocal(key string, write bool) error {
	t := time.Now()
	err := a.API.LockLocal(key, write)
	a.note(t, 0, 0)
	return err
}

func (a *stateAPI) UnlockLocal(key string, write bool) error {
	t := time.Now()
	err := a.API.UnlockLocal(key, write)
	a.note(t, 0, 0)
	return err
}

func (a *stateAPI) LockGlobal(key string, write bool) error {
	t := time.Now()
	err := a.API.LockGlobal(key, write)
	a.note(t, 0, 0)
	return err
}

func (a *stateAPI) UnlockGlobal(key string) error {
	t := time.Now()
	err := a.API.UnlockGlobal(key)
	a.note(t, 0, 0)
	return err
}

var _ hostapi.API = (*stateAPI)(nil)
