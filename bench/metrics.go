package main

// The metric catalogue: how each reported number is derived, its unit, and
// the isolation checks that prove a workload exercises the layers it claims.

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricUnits lists every metric the bench computes. BENCHMARK.json names
// the subset the driver reads; the -out record keeps them all.
var metricUnits = map[string]string{
	// End to end.
	"throughput_rps":        "req/s",
	"latency_p50_us":        "us",
	"latency_p99_us":        "us",
	"error_rate":            "ratio",
	"server_cpu_us_per_req": "us",
	"rss_peak_mb":           "MB",
	"alloc_bytes_per_req":   "B",
	"allocs_per_req":        "count",
	"setup_s":               "s",

	// Measured run, from /metrics deltas over the measured window.
	"server.warm_hit_ratio":          "ratio",
	"server.encodes_per_req":         "count",
	"cache.hit_ratio":                "ratio",
	"cache.evictions_per_req":        "count",
	"cache.shared_per_req":           "count",
	"core.genpool_hit_ratio":         "ratio",
	"core.genpool_evictions_per_req": "count",
	"pathdisc.compiles_per_req":      "count",
	"pathdisc.edge_visits_per_req":   "count",
	"pathdisc.paths_per_req":         "count",
	"depend.compiles_per_req":        "count",
	"explain.us_per_req":             "us",
	"explain.share":                  "%",
	"client.cpu_us_per_req":          "us",

	// Traced run.
	"server.handler_us":     "us",
	"server.handler_p50_us": "us",
	"upsimd.transport_us":   "us",
	"trace.coverage":        "ratio",
	"trace.overhead_pct":    "%",
}

// dependAlgorithms are the §VII stages upsim_depend_algorithm_seconds splits
// analysis time into.
var dependAlgorithms = []string{"structure", "compile", "exact", "rbd", "fault_tree", "montecarlo"}

// stageSpans are the spans the traced run reports as stages: the ladder's
// own, named after the layer call they wrap, and the Step 6–8 spans core
// opens beneath core.generate. Each stage reports <stage>_us (mean per
// request), <stage>_p50_us, and <stage>_share, the mean as a percentage of
// the ladder's mean request time. BENCHMARK.json lists the shares: a stage a
// workload never runs reads 0.
var stageSpans = []string{
	"server.body_read", "server.body_hash", "server.item_key", "cache.get",
	"server.decode", "core.pool_acquire", "uml.decode", "core.step5",
	"core.model_digest", "service.from_activity", "mapping.parse",
	"core.cache_key", "core.generate", "step6.import_mapping",
	"step7.pathdisc", "step8.merge", "cache.analysis", "pathdisc.kshortest",
	"pathdisc.allpaths", "server.paths_response", "server.generate_response",
	"depend.analyze", "depend.qos", "explain.explain", "server.encode",
	"server.write", "cache.put",
}

// stageName is the metric name of a stage span.
func stageName(span string) string {
	switch span {
	case "step6.import_mapping":
		return "core.step6"
	case "step7.pathdisc":
		return "core.step7"
	case "step8.merge":
		return "core.step8"
	}
	return span
}

func init() {
	metricUnits["core.genpool_lookups"] = "count"
	metricUnits["depend.analyses"] = "count"
	for _, a := range dependAlgorithms {
		metricUnits["depend."+a+"_us_per_req"] = "us"
		metricUnits["depend."+a+"_share"] = "%"
	}
	for _, sp := range stageSpans {
		name := stageName(sp)
		metricUnits[name+"_us"] = "us"
		metricUnits[name+"_p50_us"] = "us"
		metricUnits[name+"_share"] = "%"
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of the measured window from
// two /metrics scrapes.
func layerMetrics(m map[string]float64, m0, m1 metricsSnapshot, lr loopResult) {
	n := float64(lr.ok)
	d := func(name string, labels ...string) float64 { return delta(m0, m1, name, labels...) }

	// Warm-lane probes: one per analysis or batch body, one per batch item.
	probes := lr.okByRoute[routeAvailability] + lr.okByRoute[routeQoS] +
		lr.okByRoute[routeExplain] + lr.okByRoute[routeBatch] + lr.okItems
	m["server.warm_hit_ratio"] = ratio(d("upsim_server_warm_hits_total"), float64(probes))
	m["server.encodes_per_req"] = d("upsim_server_response_encodes_total") / n

	hits, misses := d("upsim_cache_hits_total"), d("upsim_cache_misses_total")
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_req"] = d("upsim_cache_evictions_total") / n
	m["cache.shared_per_req"] = d("upsim_cache_singleflight_shared_total") / n

	ph, pm := d("upsim_genpool_hits_total"), d("upsim_genpool_misses_total")
	m["core.genpool_hit_ratio"] = ratio(ph, ph+pm)
	m["core.genpool_evictions_per_req"] = d("upsim_genpool_evictions_total") / n
	m["core.genpool_lookups"] = ph + pm

	m["pathdisc.compiles_per_req"] = d("upsim_pathdisc_compile_total") / n
	m["pathdisc.edge_visits_per_req"] = d("upsim_pathdisc_edge_visits_sum") / n
	m["pathdisc.paths_per_req"] = d("upsim_pathdisc_paths_found_sum") / n

	// Shares are of the daemon's summed request time.
	serverS := d("upsim_http_request_duration_seconds_sum")
	m["depend.compiles_per_req"] = d("upsim_depend_compile_total") / n
	m["depend.analyses"] = d("upsim_depend_algorithm_seconds_count")
	for _, a := range dependAlgorithms {
		s := d("upsim_depend_algorithm_seconds_sum", `algorithm="`+a+`"`)
		m["depend."+a+"_us_per_req"] = s * 1e6 / n
		m["depend."+a+"_share"] = ratio(s, serverS) * 100
	}
	es := d("upsim_explain_seconds_sum")
	m["explain.us_per_req"] = es * 1e6 / n
	m["explain.share"] = ratio(es, serverS) * 100
}

// traceMetrics adds the traced run's per-layer metrics.
func traceMetrics(m map[string]float64, tr *traceResult) {
	m["server.handler_us"] = tr.HandlerMeanUS
	m["server.handler_p50_us"] = tr.HandlerP50US
	m["upsimd.transport_us"] = m["latency_p50_us"] - tr.HandlerP50US
	m["trace.coverage"] = tr.Coverage
	m["trace.overhead_pct"] = tr.OverheadPct
	for _, sp := range stageSpans {
		name := stageName(sp)
		var mean, p50 float64
		if st, ok := tr.Stages[sp]; ok {
			mean, p50 = st.MeanUS, st.P50US
		}
		m[name+"_us"] = mean
		m[name+"_p50_us"] = p50
		m[name+"_share"] = mean / tr.LadderMeanUS * 100
	}
}

// isolationCheck is one claim about which layers a workload exercises.
type isolationCheck struct {
	claim string
	value float64
	ok    bool
}

func (c isolationCheck) String() string {
	verdict := "holds"
	if !c.ok {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("%s (measured %g): %s", c.claim, c.value, verdict)
}

// isolationChecks verifies that the workload bypasses what it claims to
// bypass; a violation fails the run.
func isolationChecks(workload string, m map[string]float64) []isolationCheck {
	switch workload {
	case "replay":
		dependUS := 0.0
		for _, a := range dependAlgorithms {
			dependUS += m["depend."+a+"_us_per_req"]
		}
		return []isolationCheck{
			{"depend.*_us_per_req = 0", dependUS, dependUS == 0 && m["depend.analyses"] == 0},
			{"core.genpool_* deltas = 0", m["core.genpool_lookups"] + m["core.genpool_evictions_per_req"],
				m["core.genpool_lookups"] == 0 && m["core.genpool_evictions_per_req"] == 0},
		}
	case "churn":
		return []isolationCheck{{"core.genpool_hit_ratio < 0.05", m["core.genpool_hit_ratio"], m["core.genpool_hit_ratio"] < 0.05}}
	case "analyze":
		return []isolationCheck{{"server.warm_hit_ratio < 0.05", m["server.warm_hit_ratio"], m["server.warm_hit_ratio"] < 0.05}}
	}
	return nil
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (specWorkload, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return specWorkload{}, false
}
