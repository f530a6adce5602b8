package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every child process the benchmark starts is registered here, so each
// exit path — normal, error or interrupt — stops and waits for all of them.
var children struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]chan struct{} // closed once the process is waited for
}

// startChild starts cmd and registers it; the returned channel closes when
// the process has exited and been waited for.
func startChild(cmd *exec.Cmd) (<-chan struct{}, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	children.mu.Lock()
	if children.procs == nil {
		children.procs = map[*exec.Cmd]chan struct{}{}
	}
	children.procs[cmd] = done
	children.mu.Unlock()
	go func() {
		cmd.Wait()
		children.mu.Lock()
		delete(children.procs, cmd)
		children.mu.Unlock()
		close(done)
	}()
	return done, nil
}

// stopChild sends SIGTERM (the daemon's graceful drain), escalates to
// SIGKILL after grace, and returns once the process has been waited for.
func stopChild(cmd *exec.Cmd, done <-chan struct{}, grace time.Duration) {
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	cmd.Process.Kill()
	<-done
}

// stopChildren stops every registered child that is still running.
func stopChildren() {
	children.mu.Lock()
	procs := make(map[*exec.Cmd]chan struct{}, len(children.procs))
	for c, d := range children.procs {
		procs[c] = d
	}
	children.mu.Unlock()
	for c, d := range procs {
		stopChild(c, d, 5*time.Second)
	}
}

// hostCPU is the machine's CPU time since boot from /proc/stat, in seconds
// summed over CPUs: the time its CPUs ran anything (busy), and the time
// they were ready to run but the host ran other guests instead (steal).
type hostCPU struct{ busy, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(f[i], 64)
		v[i] /= 100 // USER_HZ
	}
	return hostCPU{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stealShare is the share of the time between readings a and b that the
// machine's CPUs were ready to run but the host gave to other guests, or 0
// where the kernel reports no steal time. A measured phase's wall times,
// multiplied by 1 − stealShare, are what they would have been on a host
// that never took the CPUs away.
func stealShare(a, b hostCPU) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if steal <= 0 || busy <= 0 {
		return 0
	}
	return steal / (busy + steal)
}
