// Command bench is upsimd's end-to-end benchmark. It builds ./cmd/upsimd,
// starts a fresh daemon per workload with default flags, drives it over
// loopback HTTP in a closed loop with two keep-alive connections, checks
// every reply, and reads per-layer counters from the daemon's /metrics. A
// traced in-process run then splits each request by layer (see trace.go).
//
// Run from the repository root:
//
//	bash bench/run.sh --workload analyze --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --seed 1 --out bench/out/run.json      # every workload
//	bash bench/run.sh compare -base A.json -head B.json [-base …]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are
// BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list. See
// bench/README.md for the workloads and the metric catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	traceDir string // where trace-<workload>.json files go
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.root, "root", "", "repository root (default: the current directory, or its parent when run from bench/)")
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 1, "1 runs the traced in-process replay and reports per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s measured, no warm-up, short traced run")
	flag.StringVar(&o.out, "out", "", "write the full run record (every metric, stage table, checks) to this JSON file")
	flag.Parse()
	o.trace = trace != 0
	if o.smoke {
		o.seconds = 1
	}
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runRecord is the -out file, and what compare reads.
type runRecord struct {
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errIncorrect marks a run that finished but failed a check.
var errIncorrect = errors.New("a check failed")

func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "upsimd")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no cmd/upsimd here or in the parent directory; run from the repository root")
}

func run(o *options, stdout io.Writer) error {
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	o.root = root
	o.traceDir = filepath.Join(root, "bench", "out")
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	names := workloadNames
	if o.workload != "all" {
		names = []string{o.workload}
	}
	for _, n := range names {
		if _, ok := spec.workload(n); !ok {
			return fmt.Errorf("workload %q is not in BENCHMARK.json", n)
		}
	}
	bin := filepath.Join(root, ".bench_build", "upsimd")
	if err := buildDaemon(root, bin); err != nil {
		return err
	}

	rec := &runRecord{Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		wr, err := runWorkload(o, n, bin)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		wr.print(stdout)
		rec.Workloads = append(rec.Workloads, wr)
		final.Correct = final.Correct && wr.Correct
		final.Attempted += wr.Attempted
		final.Failed += wr.Failed
		list := spec.EndToEnd
		if o.trace {
			list = spec.PerLayer
		}
		for _, m := range list {
			v, ok := wr.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", n, m.Name)
			}
			if unit := metricUnits[m.Name]; unit != m.Unit {
				return fmt.Errorf("metric %s: BENCHMARK.json says unit %q, the bench measures %q", m.Name, m.Unit, unit)
			}
			name := m.Name
			if len(names) > 1 {
				name = n + "." + name
			}
			final.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workloadResult is everything one workload run measured.
type workloadResult struct {
	Workload     string             `json:"workload"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FirstFailure string             `json:"firstFailure,omitempty"`
	Samples      int                `json:"samples"`
	Metrics      map[string]float64 `json:"metrics"`
	Isolation    []string           `json:"isolation"`
	Trace        *traceResult       `json:"trace,omitempty"`
}

func (wr *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed, %d measured samples, correct=%t\n",
		wr.Workload, wr.Attempted, wr.Failed, wr.Samples, wr.Correct)
	if wr.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", wr.FirstFailure)
	}
	for _, s := range wr.Isolation {
		fmt.Fprintf(w, "  isolation: %s\n", s)
	}
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, wr.Metrics[n], metricUnits[n])
	}
}

// setupSamples is how many daemons set-up starts and primes. setup_s is the
// median of their start-up plus priming pass; the last daemon serves the
// workload.
const setupSamples = 15

// warmup is the unreported load before the measured window. It is part of
// the workload definition, so every pair of compared runs shares it; smoke
// runs skip it.
const warmup = 2 * time.Second

func runWorkload(o *options, name, bin string) (*workloadResult, error) {
	w, err := newWorkload(name, o.seed)
	if err != nil {
		return nil, err
	}
	clients := make([]*http.Client, connections)
	for i := range clients {
		clients[i] = newClient()
	}
	defer drainIdle(clients)
	chk := newChecker()
	wr := &workloadResult{Workload: name, Metrics: map[string]float64{}}

	var (
		setups []float64
		d      *daemon
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for k := 0; k < setupSamples; k++ {
		if d != nil {
			d.stop()
			drainIdle(clients)
		}
		var boot time.Duration
		if d, boot, err = startDaemon(bin); err != nil {
			return nil, err
		}
		t0 := time.Now()
		att, ok := prime(clients[0], "http://"+d.addr, w, chk)
		setups = append(setups, (boot + time.Since(t0)).Seconds())
		wr.Attempted += att
		wr.Failed += att - ok
	}
	base := "http://" + d.addr
	var next atomic.Uint64
	if !o.smoke {
		lr := runLoop(clients, base, w, &next, time.Now().Add(warmup), chk)
		wr.Attempted += lr.attempted
		wr.Failed += lr.attempted - lr.ok
	}

	ctx := context.Background()
	h0, err := d.heap(ctx)
	if err != nil {
		return nil, err
	}
	m0, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	ru0 := selfCPU()
	lr := runLoop(clients, base, w, &next, time.Now().Add(time.Duration(o.seconds)*time.Second), chk)
	ru1 := selfCPU()
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m1, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	h1, err := d.heap(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	wr.Attempted += lr.attempted
	wr.Failed += lr.attempted - lr.ok
	wr.Samples = len(lr.latencies)
	if lr.ok == 0 {
		return nil, fmt.Errorf("no successful measured request (%s)", chk.first)
	}

	lat := make([]float64, len(lr.latencies))
	for i, l := range lr.latencies {
		lat[i] = us(l)
	}
	n := float64(lr.ok)
	m := wr.Metrics
	m["throughput_rps"] = n / lr.end.Sub(lr.start).Seconds()
	m["latency_p50_us"] = quantile(lat, 0.50)
	m["latency_p99_us"] = quantile(lat, 0.99)
	m["error_rate"] = float64(lr.attempted-lr.ok) / float64(lr.attempted)
	m["server_cpu_us_per_req"] = us(cpu1-cpu0) / n
	m["rss_peak_mb"] = rss
	m["alloc_bytes_per_req"] = float64(h1.TotalAlloc-h0.TotalAlloc) / n
	m["allocs_per_req"] = float64(h1.Mallocs-h0.Mallocs) / n
	m["setup_s"] = quantile(setups, 0.5)
	m["client.cpu_us_per_req"] = us(ru1-ru0) / n
	layerMetrics(m, m0, m1, lr)
	// The p99 needs at least ten samples beyond it.
	if !o.smoke && len(lat) < 1000 {
		chk.fail(fmt.Sprintf("only %d measured samples; latency_p99_us needs 1000", len(lat)))
	}
	for _, c := range isolationChecks(name, m) {
		wr.Isolation = append(wr.Isolation, c.String())
		if !c.ok {
			chk.fail("isolation violated: " + c.String())
		}
	}

	if o.trace {
		tr, err := tracedRun(w, chk, o.smoke, o.traceDir)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		wr.Trace = tr
		traceMetrics(m, tr)
		if !o.smoke && tr.Coverage < minCoverage {
			chk.fail(fmt.Sprintf("trace.coverage %.3f below %.2f", tr.Coverage, minCoverage))
		}
	}
	wr.FirstFailure = chk.first
	wr.Correct = chk.failures == 0
	return wr, nil
}

// minCoverage is the least share of the handler's time the ladder's stages
// must account for.
const minCoverage = 0.90

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
