package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/shardkvs"
)

// numShards is the global tier's width: two faasmd -kvs children, as a
// small sharded faasmd deployment runs it.
const numShards = 2

// shardReadyTimeout bounds how long a shard child may take to report its
// listening address.
const shardReadyTimeout = 15 * time.Second

// shardAddrRE matches the line faasmd logs once its kvs listener is bound.
var shardAddrRE = regexp.MustCompile(`global tier shard serving on (\S+)`)

// children tracks every shard process this benchmark started, so that the
// interrupt handler and every exit path can kill them.
var children = struct {
	mu     sync.Mutex
	shards map[*shard]struct{}
}{shards: map[*shard]struct{}{}}

// shard is one running faasmd -kvs child.
type shard struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once Wait has returned
}

// startShard launches one faasmd child serving a kvs shard on an ephemeral
// loopback port and waits until it reports the bound address.
func startShard(faasmd string, idx int) (*shard, error) {
	cmd := exec.Command(faasmd,
		"-kvs", "127.0.0.1:0",
		"-listen", "127.0.0.1:0",
		"-host", fmt.Sprintf("bench-shard-%d", idx))
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	// Pdeathsig kills the child even if this process dies without running
	// its cleanup (a crash or SIGKILL).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &shard{cmd: cmd, done: make(chan struct{})}
	children.mu.Lock()
	err = cmd.Start()
	if err == nil {
		children.shards[s] = struct{}{}
	}
	children.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("shard %d: start %s: %w", idx, faasmd, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		// Drain stderr for the child's whole life so it never blocks on a
		// full pipe; the first address line signals readiness.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := shardAddrRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrCh <- m[1]
				sent = true
			}
		}
		close(addrCh)
		cmd.Wait()
		close(s.done)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("shard %d exited before listening", idx)
		}
		s.addr = addr
		return s, nil
	case <-time.After(shardReadyTimeout):
		s.kill()
		return nil, fmt.Errorf("shard %d not ready after %v", idx, shardReadyTimeout)
	}
}

// kill stops the child and waits until it has been reaped. Idempotent.
func (s *shard) kill() {
	s.cmd.Process.Kill()
	<-s.done
	children.mu.Lock()
	delete(children.shards, s)
	children.mu.Unlock()
}

// killAllChildren kills every tracked child and waits for each; used by the
// interrupt handler, which cannot reach the deployments on the stack.
func killAllChildren() {
	children.mu.Lock()
	all := make([]*shard, 0, len(children.shards))
	for s := range children.shards {
		all = append(all, s)
	}
	children.mu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// childPIDs lists the live children (tests assert it drains to empty).
func childPIDs() []int {
	children.mu.Lock()
	defer children.mu.Unlock()
	out := make([]int, 0, len(children.shards))
	for s := range children.shards {
		out = append(out, s.cmd.Process.Pid)
	}
	return out
}

// deployment is the system under test: shard children, the ring over them,
// and one in-process host attached to it the way cmd/faasmd attaches.
type deployment struct {
	shards []*shard
	ring   *shardkvs.Ring
	probe  *tierProbe  // nil unless traced; wraps ring as the host's store
	state  *stateProbe // nil unless traced
	inst   *frt.Instance
}

// hostOptions are the per-workload runtime knobs.
type hostOptions struct {
	traced     bool
	asyncQueue bool
	queueDepth int
}

// traceBuffer retains every trace of a traced pass for span analysis (the
// largest, async's, is under 10k calls at --seconds 20).
const traceBuffer = 1 << 15

// deploy starts the shard children, attaches the ring, and builds the host.
// On error everything already started is torn down.
func deploy(faasmd string, opts hostOptions) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	type res struct {
		s   *shard
		err error
	}
	ch := make(chan res, numShards)
	for i := 0; i < numShards; i++ {
		go func(i int) {
			s, err := startShard(faasmd, i)
			ch <- res{s, err}
		}(i)
	}
	var firstErr error
	for i := 0; i < numShards; i++ {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		d.shards = append(d.shards, r.s)
	}
	if firstErr != nil {
		return d, firstErr
	}
	addrs := make([]string, len(d.shards))
	for i, s := range d.shards {
		addrs[i] = s.addr
	}
	d.ring, err = shardkvs.AttachRemote(addrs, shardkvs.Options{})
	if err != nil {
		return d, fmt.Errorf("attach tier: %w", err)
	}
	if _, err := d.ring.ShardKeyCounts(); err != nil {
		return d, fmt.Errorf("tier not reachable: %w", err)
	}
	cfg := frt.Config{
		Host:        "bench-host",
		Store:       d.ring,
		TraceSample: -1,
		AsyncQueue:  opts.asyncQueue,
		QueueDepth:  opts.queueDepth,
	}
	if opts.traced {
		d.probe = newTierProbe(d.ring)
		d.state = &stateProbe{}
		cfg.Store = d.probe
		cfg.TraceSample = 1
		cfg.TraceBuffer = traceBuffer
	}
	d.inst = frt.New(cfg)
	return d, nil
}

// close shuts the host down, detaches the ring and kills every shard.
// Safe on a partially built deployment.
func (d *deployment) close() {
	if d == nil {
		return
	}
	if d.inst != nil {
		d.inst.Shutdown()
		d.inst = nil
	}
	if d.ring != nil {
		d.ring.Close()
		d.ring = nil
	}
	for _, s := range d.shards {
		s.kill()
	}
	d.shards = nil
}

// faasmdPath finds the faasmd binary: the -faasmd flag, else next to this
// executable.
func faasmdPath(flagVal string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	p := filepath.Join(filepath.Dir(self), "faasmd")
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("faasmd binary not found next to %s (pass -faasmd)", self)
	}
	return p, nil
}
