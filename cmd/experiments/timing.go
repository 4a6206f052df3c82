package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// smoke shrinks the kernel-timing experiments to CI-sized sanity runs:
// fewer and shorter samples, and some experiments drop or shrink their
// largest workloads. main sets it from -smoke.
var smoke bool

// sampling returns the number of samples behind each timing and the
// minimum span of one sample.
func sampling() (reps int, window time.Duration) {
	if smoke {
		return 3, 2 * time.Millisecond
	}
	return 9, 20 * time.Millisecond
}

// timing summarises one workload's timed samples in nanoseconds per run:
// the best repetition, and the median and interquartile range over all of
// them, so that a later record can tell drift from noise. RunsPerRep is the
// calibrated batch size: enough consecutive runs that one timed sample
// spans the sampling window.
type timing struct {
	BestNs     int64 `json:"bestNs"`
	MedianNs   int64 `json:"medianNs"`
	IQRNs      int64 `json:"iqrNs"`
	RunsPerRep int   `json:"runsPerRep"`
}

// measure times f: calibrate picks the batch size, then each sample is one
// timeBatch.
func measure(f func() error) (timing, error) {
	reps, window := sampling()
	batch, err := calibrate(f, window)
	if err != nil {
		return timing{}, err
	}
	samples := make([]int64, 0, reps)
	for range reps {
		d, err := timeBatch(batch, f)
		if err != nil {
			return timing{}, err
		}
		samples = append(samples, d)
	}
	return summarise(samples, batch), nil
}

// calibrate grows the batch the way testing.B grows b.N until one timed
// batch of consecutive runs spans the window: from the last batch's time it
// predicts the size that fills the window, adds a fifth, and grows at least
// by one and at most a hundredfold. A run that alone spans the window gives
// a batch of 1.
func calibrate(f func() error, window time.Duration) (int, error) {
	const maxBatch = 1_000_000_000
	batch := 1
	for {
		start := time.Now()
		for range batch {
			if err := f(); err != nil {
				return 0, err
			}
		}
		elapsed := max(time.Since(start), 1)
		if elapsed >= window || batch >= maxBatch {
			return batch, nil
		}
		next := int(int64(window) * int64(batch) / int64(elapsed))
		next += next / 5
		batch = min(max(next, batch+1), 100*batch, maxBatch)
	}
}

// timeBatch times one sample: collect the heap, one untimed warm-up run
// (runtime.GC purges the kernels' sync.Pools, so the first run after it
// re-allocates scratch), then batch consecutive timed runs averaged into a
// per-run figure. Timing a single microsecond run is unsound — one GC pause
// or scheduler blip inside the window swamps the signal — so small
// workloads are batched until a sample covers enough real work, the
// strategy testing.B uses to pick b.N.
func timeBatch(batch int, f func() error) (int64, error) {
	runtime.GC()
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	for j := 0; j < batch; j++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(batch), nil
}

// summarise returns the timing of the samples, with nearest-rank quartiles.
func summarise(samples []int64, runsPerRep int) timing {
	s := slices.Clone(samples)
	slices.Sort(s)
	q := func(p float64) int64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return timing{BestNs: s[0], MedianNs: q(0.5), IQRNs: q(0.75) - q(0.25), RunsPerRep: runsPerRep}
}

// String renders the median and interquartile range, e.g. "12µs ±0.4µs".
func (t timing) String() string {
	return fmt.Sprintf("%v ±%v", roundNs(t.MedianNs), roundNs(t.IQRNs))
}

// roundNs renders a nanosecond figure at three significant digits.
func roundNs(ns int64) time.Duration {
	d := time.Duration(ns)
	for r := time.Duration(1); ; r *= 10 {
		if d < 1000*r {
			return d.Round(r)
		}
	}
}

// benchHost is the host line every BENCH_<id>.json record opens with: the
// machine and the sampling plan behind each of its timings.
type benchHost struct {
	Host       string `json:"host"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Reps       int    `json:"repsPerTiming"`
	WindowNs   int64  `json:"minSampleWindowNs"`
}

func newBenchHost() benchHost {
	reps, window := sampling()
	return benchHost{Host: hostName(), GOMAXPROCS: runtime.GOMAXPROCS(0), Reps: reps, WindowNs: window.Nanoseconds()}
}

func (h benchHost) String() string {
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %d reps, >=%s/sample", h.Host, h.GOMAXPROCS, h.Reps, time.Duration(h.WindowNs))
}

// hostName names the machine a benchmark record was taken on: the CPU model
// where /proc/cpuinfo reports one, the architecture and the CPU count.
func hostName() string {
	cpu := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %s, %d CPUs", cpu, runtime.GOARCH, runtime.NumCPU())
}

// recordName is the file a timed experiment's record is written to.
func recordName(id string) string { return "BENCH_" + id + ".json" }

// writeRecord writes a timed experiment's rows, under the host line, to
// recordName(id) in the working directory.
func writeRecord(id string, rows any) error {
	data, err := json.MarshalIndent(struct {
		benchHost
		Workloads any `json:"workloads"`
	}{newBenchHost(), rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recordName(id), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", recordName(id))
	return nil
}
