package main

// Building, starting and stopping upsimd, and reading what the kernel and
// the daemon's own /metrics say about it.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/upsimd of the repository at root into out.
func buildDaemon(root, out string) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/upsimd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building upsimd: %w", err)
	}
	return nil
}

// daemon is one running upsimd with default flags on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stderr reaches EOF
}

// startDaemon spawns bin, reads the bound address from its "upsimd
// listening" log line, then discards stderr. It returns once /healthz
// answers 200, with the time from spawn to that answer.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	r := bufio.NewReader(stderr)
	for d.addr == "" {
		line, err := r.ReadString('\n')
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, 0, fmt.Errorf("upsimd exited before listening: %v", err)
		}
		if !strings.Contains(line, "upsimd listening") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if a, ok := strings.CutPrefix(f, "addr="); ok {
				d.addr = a
			}
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, r)
		close(d.drained)
	}()
	if err := d.awaitHealthy(30 * time.Second); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// awaitHealthy polls /healthz until it answers 200.
func (d *daemon) awaitHealthy(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(d.url("/healthz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("upsimd at %s not healthy after %s", d.addr, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, kills the daemon if it has not exited within its
// drain window, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuTime returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it do not.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metricsSnapshot maps each exposed series ("name{labels}") to its value.
type metricsSnapshot map[string]float64

// get fetches one of the daemon's GET endpoints on a fresh connection.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url(path), nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads the daemon's Prometheus exposition.
func (d *daemon) scrape(ctx context.Context) (metricsSnapshot, error) {
	body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	snap := metricsSnapshot{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, nil
}

// heapCounters are the daemon's cumulative allocation counters, from the
// runtime.MemStats expvar publishes on GET /debug/vars.
type heapCounters struct {
	Mallocs    uint64 `json:"Mallocs"`
	TotalAlloc uint64 `json:"TotalAlloc"`
}

func (d *daemon) heap(ctx context.Context) (heapCounters, error) {
	body, err := d.get(ctx, "/debug/vars")
	if err != nil {
		return heapCounters{}, err
	}
	var vars struct {
		MemStats heapCounters `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return heapCounters{}, fmt.Errorf("GET /debug/vars: %w", err)
	}
	return vars.MemStats, nil
}

// sum adds every series of the named metric whose label set contains each
// of the given `key="value"` pairs.
func (s metricsSnapshot) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after.sum − before.sum for one metric.
func delta(before, after metricsSnapshot, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
