package main

// go run . compare -base A.json -head B.json [-base A2.json -head B2.json …]
//
// Compares run records (-out files) of two commits, one row per workload ×
// end-to-end metric (BENCHMARK.json's, then the ungated timing metrics),
// under the rule the benchmark's bounds encode:
//
//   - better: with at least ten runs a side, the head wins at least 9/10 of
//     the pairs (ties count for neither) and the medians differ by more than
//     the base runs' interquartile range;
//   - unresolved: the base runs spread wider than the bound, and not every
//     head run reads better than every base run;
//   - worse: the head median is worse than the base median by more than the
//     bound (a share of the base median);
//   - within bound: anything else.
//
// A metric without a bound is better or worse only by the pairs rule, and
// unresolved otherwise.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

type fileList []string

func (f *fileList) String() string { return strings.Join(*f, ",") }
func (f *fileList) Set(v string) error {
	*f = append(*f, strings.Split(v, ",")...)
	return nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	var base, head fileList
	spec := fs.String("spec", "", "BENCHMARK.json (default: at the repository root)")
	fs.Var(&base, "base", "run record of the parent commit (repeatable, or comma-separated)")
	fs.Var(&head, "head", "run record of the change (repeatable, or comma-separated)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	head = append(head, fs.Args()...)
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(os.Stderr, "compare: need at least one -base and one -head run record")
		return 2
	}
	if *spec == "" {
		root, err := findRoot("")
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		*spec = filepath.Join(root, "BENCHMARK.json")
	}
	s, err := loadSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	bruns, err := loadRuns(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	hruns, err := loadRuns(head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	if worse := compareRuns(os.Stdout, s, bruns, hruns); worse > 0 {
		return 1
	}
	return 0
}

// loadRuns reads run records into workload → metric → values, one value per
// record.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, w := range rec.Workloads {
			if out[w.Workload] == nil {
				out[w.Workload] = map[string][]float64{}
			}
			for name, v := range w.Metrics {
				out[w.Workload][name] = append(out[w.Workload][name], v)
			}
		}
	}
	return out, nil
}

// Verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// ungated are end-to-end metrics every run records but BENCHMARK.json does
// not bound: on a shared host their spread over ten runs exceeds any bound
// a regression gate could hold (README, "Calibration and bounds"). compare
// still judges them, by the pairs rule alone.
var ungated = []specMetric{
	{Name: "throughput_rps", Unit: "req/s", Better: "higher"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "server_cpu_us_per_req", Unit: "us", Better: "lower"},
}

// compareRuns prints one row per workload × end-to-end metric and returns
// the number of rows judged worse.
func compareRuns(w io.Writer, s *benchSpec, base, head map[string]map[string][]float64) int {
	fmt.Fprintf(w, "%-8s %-22s %6s %14s %14s %9s %8s  %s\n",
		"workload", "metric", "runs", "base median", "head median", "change", "bound", "verdict")
	worse := 0
	for _, wl := range s.Workloads {
		for _, m := range append(append([]specMetric(nil), s.EndToEnd...), ungated...) {
			b, h := base[wl.Name][m.Name], head[wl.Name][m.Name]
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(w, "%-8s %-22s %6s %14s %14s %9s %8s  %s\n", wl.Name, m.Name, "-", "-", "-", "-", "-", "missing")
				continue
			}
			v, change := verdict(m, b, h)
			if v == verdictWorse {
				worse++
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			}
			fmt.Fprintf(w, "%-8s %-22s %3d/%-2d %14.4f %14.4f %+8.2f%% %8s  %s\n",
				wl.Name, m.Name, len(b), len(h), quantile(b, 0.5), quantile(h, 0.5), change*100, bound, v)
		}
	}
	return worse
}

// verdict judges one metric; change is the head median's relative change
// from the base median, positive when it got worse. A metric without a
// bound is judged by the pairs rule alone.
func verdict(m specMetric, base, head []float64) (string, float64) {
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	mb, mh := quantile(base, 0.5), quantile(head, 0.5)
	change := (mh - mb) / math.Abs(mb)
	if m.Better == "higher" {
		change = -change
	}
	iqr := quantile(base, 0.75) - quantile(base, 0.25)

	// The pairs rule: with at least ten runs a side, one side wins at least
	// 9/10 of the pairs and the medians differ by more than the base IQR.
	n := min(len(base), len(head))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	decisive := func(w int) bool {
		return n >= 10 && float64(w) >= 0.9*float64(n) && math.Abs(mh-mb) > iqr
	}
	if m.Bound == 0 {
		switch {
		case decisive(wins) && better(mh, mb):
			return verdictBetter, change
		case decisive(losses) && better(mb, mh):
			return verdictWorse, change
		}
		return verdictUnresolved, change
	}

	allBetter := true
	for _, x := range head {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case iqr/math.Abs(mb) > m.Bound && !allBetter:
		return verdictUnresolved, change
	case decisive(wins) && better(mh, mb):
		return verdictBetter, change
	case change > m.Bound:
		return verdictWorse, change
	}
	return verdictWithin, change
}
