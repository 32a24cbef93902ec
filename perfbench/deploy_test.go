package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries builds faasmd and perfbench into a temporary directory.
func buildBinaries(t *testing.T) (faasmd, bench string) {
	t.Helper()
	dir := t.TempDir()
	faasmd, bench = filepath.Join(dir, "faasmd"), filepath.Join(dir, "perfbench")
	for out, pkg := range map[string]string{faasmd: "faasm.dev/faasm/cmd/faasmd", bench: "."} {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, b)
		}
	}
	return faasmd, bench
}

// alive reports whether pid names a process that has not been reaped.
func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// failingWorkload starts normally and fails in set-up, once the shard
// children are running.
type failingWorkload struct{ pids *[]int }

func (f failingWorkload) host() hostOptions { return hostOptions{} }
func (f failingWorkload) setup(d *deployment) error {
	for _, s := range d.shards {
		*f.pids = append(*f.pids, s.cmd.Process.Pid)
	}
	return errors.New("injected set-up failure")
}
func (f failingWorkload) measure(*deployment, float64, *memMeter, *outcome) error { return nil }

func TestNoChildSurvivesFailedRun(t *testing.T) {
	faasmd, _ := buildBinaries(t)
	var pids []int
	workloads["failing"] = func(int64, float64) (workload, error) {
		return failingWorkload{&pids}, nil
	}
	defer delete(workloads, "failing")
	code := run([]string{"--workload", "failing", "--seconds", "1", "--faasmd", faasmd})
	if code == 0 {
		t.Fatal("a failed set-up exited 0")
	}
	if len(pids) != numShards {
		t.Fatalf("set-up saw %d shard children, want %d", len(pids), numShards)
	}
	for _, pid := range pids {
		if alive(pid) {
			t.Errorf("shard child %d survived the failed run", pid)
		}
	}
	if left := childPIDs(); len(left) != 0 {
		t.Errorf("children still tracked: %v", left)
	}
}

// childrenOf lists the processes whose parent is pid.
func childrenOf(pid int) []int {
	var out []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		child, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state, ppid, ...
		rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
		f := strings.Fields(rest)
		if len(f) > 1 && f[1] == strconv.Itoa(pid) {
			out = append(out, child)
		}
	}
	return out
}

func TestNoChildSurvivesInterrupt(t *testing.T) {
	faasmd, bench := buildBinaries(t)
	cmd := exec.Command(bench, "--workload", "train", "--seconds", "60", "--faasmd", faasmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var kids []int
	deadline := time.Now().Add(30 * time.Second)
	for len(kids) < numShards {
		if time.Now().After(deadline) {
			t.Fatalf("benchmark started %d shard children, want %d", len(kids), numShards)
		}
		time.Sleep(20 * time.Millisecond)
		kids = childrenOf(cmd.Process.Pid)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("an interrupted run exited 0")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("benchmark did not exit after SIGINT")
	}
	for _, pid := range kids {
		if alive(pid) {
			t.Errorf("shard child %d survived the interrupt", pid)
		}
	}
}
