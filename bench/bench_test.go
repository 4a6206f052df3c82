package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"upsim/internal/cache"
	"upsim/internal/server"
	"upsim/internal/testutil"
)

// corpusDigest hashes a workload's priming pass and its first n requests.
func corpusDigest(t *testing.T, name string, seed uint64, n uint64) [sha256.Size]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range w.prime {
		h.Write([]byte(r.route + "\x00" + r.id + "\x00"))
		h.Write(r.body)
	}
	for i := uint64(0); i < n; i++ {
		r := w.next(i)
		h.Write([]byte(r.route + "\x00" + r.id + "\x00"))
		h.Write(r.body)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func TestCorpusDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := corpusDigest(t, name, 1, 64), corpusDigest(t, name, 1, 64)
			if a != b {
				t.Fatal("same seed gave different corpora")
			}
			if c := corpusDigest(t, name, 2, 64); c == a {
				t.Fatal("different seeds gave the same corpus")
			}
		})
	}
}

// TestCorpusAccepted serves every priming body and the first requests of
// each workload through the in-process handler.
func TestCorpusAccepted(t *testing.T) {
	h := server.NewWithConfig(server.Config{})
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			reqs := append([]request(nil), w.prime...)
			for i := uint64(0); i < 24; i++ {
				reqs = append(reqs, w.next(i))
			}
			for _, r := range reqs {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.route, bytes.NewReader(r.body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %.300s", r.route, r.id, rec.Code, rec.Body.Bytes())
				}
				if err := checkShape(&r, rec.Body.Bytes()); err != nil {
					t.Fatalf("%s %s: %v", r.route, r.id, err)
				}
			}
		})
	}
}

// TestLoopAgainstHandler drives the closed loop from both connections
// against an in-process server, so -race sees the shared checker.
func TestLoopAgainstHandler(t *testing.T) {
	srv := httptest.NewServer(server.New())
	defer srv.Close()
	w, err := newWorkload("replay", 3)
	if err != nil {
		t.Fatal(err)
	}
	clients := []*http.Client{newClient(), newClient()}
	defer drainIdle(clients)
	chk := newChecker()
	if att, ok := prime(clients[0], srv.URL, w, chk); ok != att {
		t.Fatalf("priming: %d of %d ok: %s", ok, att, chk.first)
	}
	var next atomic.Uint64
	lr := runLoop(clients, srv.URL, w, &next, time.Now().Add(300*time.Millisecond), chk)
	if lr.ok == 0 || lr.ok != lr.attempted || chk.failures != 0 {
		t.Fatalf("%d of %d ok, %d failures: %s", lr.ok, lr.attempted, chk.failures, chk.first)
	}
	if got := lr.okByRoute[routeAvailability] + lr.okByRoute[routeQoS] + lr.okByRoute[routeExplain]; got != lr.ok {
		t.Fatalf("route counts sum to %d, want %d", got, lr.ok)
	}
}

func TestChurnModelsDistinct(t *testing.T) {
	w, err := newWorkload("churn", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	const n = 256
	for i := uint64(0); i < n; i++ {
		var body pathsRequest
		if err := json.Unmarshal(w.next(i).body, &body); err != nil {
			t.Fatal(err)
		}
		if seen[body.ModelXML] {
			t.Fatalf("request %d repeats an earlier model", i)
		}
		seen[body.ModelXML] = true
	}
}

// TestAnalyzePerspectiveSpace pins that analyze bodies outnumber what the
// caches hold, so its requests keep missing.
func TestAnalyzePerspectiveSpace(t *testing.T) {
	c, err := buildCampus("campus", analyzeCampus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.perspectives(), 10*cache.DefaultMaxEntries; got < want {
		t.Fatalf("%d perspectives, want at least %d", got, want)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0.99, 10}} {
		if got := quantile(vs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{shift(-20), verdictBetter},
		{shift(+20), verdictWorse},
		{shift(+3), verdictWithin},
		{shift(-1), verdictWithin},
	} {
		if got, _ := verdict(lower, base, tc.head); got != tc.want {
			t.Errorf("head %v: verdict %q, want %q", tc.head[:2], got, tc.want)
		}
	}
	ungatedP50 := specMetric{Name: "latency_p50_us", Better: "lower"}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{shift(-20), verdictBetter},
		{shift(+20), verdictWorse},
		{[]float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, verdictUnresolved},
	} {
		if got, _ := verdict(ungatedP50, base, tc.head); got != tc.want {
			t.Errorf("ungated, head %v: verdict %q, want %q", tc.head[:2], got, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _ := verdict(lower, wide, shift(0)); got != verdictUnresolved {
		t.Errorf("wide base: verdict %q, want %q", got, verdictUnresolved)
	}
}

// TestSmoke runs every workload for one second against a freshly built
// daemon and checks that every metric BENCHMARK.json names is emitted with
// its unit, that nothing failed, and that the traced run measured coverage.
func TestSmoke(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing smoke test; the race detector distorts it")
	}
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build upsimd")
	}
	bin := filepath.Join(t.TempDir(), "upsimd")
	if err := buildDaemon(root, bin); err != nil {
		t.Fatal(err)
	}
	o := &options{root: root, seed: 1, seconds: 1, trace: true, smoke: true, traceDir: t.TempDir()}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			wr, err := runWorkload(o, sw.Name, bin)
			if err != nil {
				t.Fatal(err)
			}
			if !wr.Correct || wr.Failed != 0 {
				t.Fatalf("correct=%t failed=%d: %s", wr.Correct, wr.Failed, wr.FirstFailure)
			}
			for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
				if _, ok := wr.Metrics[m.Name]; !ok {
					t.Errorf("metric %s not emitted", m.Name)
				}
				if unit := metricUnits[m.Name]; unit != m.Unit {
					t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, unit, m.Unit)
				}
			}
			if wr.Metrics["error_rate"] != 0 {
				t.Errorf("error_rate = %v", wr.Metrics["error_rate"])
			}
			if wr.Trace == nil || !(wr.Metrics["trace.coverage"] > 0) {
				t.Errorf("trace.coverage not computed")
			}
		})
	}
}
