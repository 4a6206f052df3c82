package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/mapping"
	"upsim/internal/modelgen"
	"upsim/internal/server"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// warmOut is where expWarm writes its machine-readable record; empty skips
// the file. main sets it from -warm-out. The experiment shares the -smoke
// switch (dependSmoke) with expDepend/expWhatIf.
var warmOut string

// warmGenWorkload is one row of the cold-generate comparison: the
// per-request build without a generator pool (XML decode + Step 5 check +
// topology extraction + CSR compile + generation) against the pooled path
// (generator-pool acquire + generation), best-of-reps nanoseconds per
// request. Neither side builds a model space: generation never reads one.
type warmGenWorkload struct {
	Model      string  `json:"model"`
	XMLBytes   int     `json:"modelXmlBytes"`
	FreshNs    int64   `json:"freshNs"`
	PooledNs   int64   `json:"pooledNs"`
	Speedup    float64 `json:"speedup"`
	Parity     bool    `json:"parity,omitempty"`
	RunsPerRep int     `json:"runsPerRep"`
}

// warmRouteRow is one row of the HTTP warm-lane table: allocations and
// latency of a repeated (byte-identical) analysis request against the
// latency of a semantically-identical but byte-distinct request, which
// still pays JSON decode + pool acquire before hitting the result cache.
type warmRouteRow struct {
	Route       string  `json:"route"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	WarmNs      int64   `json:"warmNs"`
	ColdNs      int64   `json:"coldCacheHitNs"`
	Speedup     float64 `json:"speedup"`
	Parity      bool    `json:"parity,omitempty"`
	RunsPerRep  int     `json:"runsPerRep"`
}

// warmBench is the BENCH_warm.json schema. GenerateFloorSpeedup is the worst
// fresh-vs-pooled ratio across the corpus (the acceptance floor is 3x);
// MaxWarmAllocs is the largest AllocsPerRun over the availability and qos
// warm hits (the acceptance ceiling is 0). Regression flags any
// Mann-Whitney-confirmed slowdown in any measured family.
type warmBench struct {
	GOMAXPROCS           int               `json:"gomaxprocs"`
	Reps                 int               `json:"repsPerVariant"`
	WindowNs             int64             `json:"minSampleWindowNs"`
	Smoke                bool              `json:"smoke,omitempty"`
	Generate             []warmGenWorkload `json:"coldGenerate"`
	GenerateFloorSpeedup float64           `json:"coldGenerateFloorSpeedup"`
	Routes               []warmRouteRow    `json:"warmRoutes"`
	MaxWarmAllocs        float64           `json:"maxWarmAllocsPerOp"`
	Regression           bool              `json:"regression"`
}

// warmReplayBody is a resettable request body so one http.Request serves
// repeatedly without per-iteration reader allocation.
type warmReplayBody struct{ r bytes.Reader }

func (b *warmReplayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *warmReplayBody) Close() error               { return nil }

// warmNullWriter discards response bytes behind a persistent header map, so
// repeated serves exercise only the server's own work.
type warmNullWriter struct {
	h      http.Header
	status int
}

func (w *warmNullWriter) Header() http.Header { return w.h }
func (w *warmNullWriter) WriteHeader(s int)   { w.status = s }
func (w *warmNullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// expWarm benchmarks the allocation-free warm path: the generator pool
// against the pre-PR per-request cold build, and the byte-level HTTP warm
// lane against the cold-with-caches request path it short-circuits.
func expWarm() error {
	ctx := context.Background()
	window := 20 * time.Millisecond
	b := warmBench{
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Reps:                 9,
		GenerateFloorSpeedup: math.Inf(1),
	}
	if dependSmoke {
		b.Reps, window = 3, 2*time.Millisecond
		b.Smoke = true
	}
	b.WindowNs = window.Nanoseconds()
	fmt.Printf("  GOMAXPROCS=%d, best of %d interleaved reps, >=%s/sample\n",
		b.GOMAXPROCS, b.Reps, window)

	// The expDepend/expWhatIf methodology: one sample = GC + untimed warm-up
	// + a calibrated batch of timed runs; variants interleave with
	// alternating order; the best repetition represents each variant; rank
	// testing decides whether a delta is signal at all.
	timeIt := func(batch int, f func() error) (int64, error) {
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
	benchPair := func(fast, slow func() error) (fastNs, slowNs int64, speedup float64, parity bool, runs int, err error) {
		calStart := time.Now()
		if err = slow(); err != nil {
			return
		}
		runs = min(max(int(window/max(time.Since(calStart), time.Microsecond)), 1), 512)
		fastNs, slowNs = math.MaxInt64, math.MaxInt64
		var fs, ss []int64
		for i := 0; i < b.Reps; i++ {
			first, second := fast, slow
			if i%2 == 1 {
				first, second = slow, fast
			}
			var d1, d2 int64
			if d1, err = timeIt(runs, first); err != nil {
				return
			}
			if d2, err = timeIt(runs, second); err != nil {
				return
			}
			df, ds := d1, d2
			if i%2 == 1 {
				df, ds = d2, d1
			}
			fastNs = min(fastNs, df)
			slowNs = min(slowNs, ds)
			fs = append(fs, df)
			ss = append(ss, ds)
		}
		if mannWhitneyDistinct(fs, ss) {
			speedup = math.Round(float64(slowNs)/float64(fastNs)*100) / 100
		} else {
			parity, speedup = true, 1
		}
		return
	}

	// --- Cold generate: fresh per-request build vs generator-pool reuse ---

	type genWorkload struct {
		name     string
		modelXML string
		diagram  string
		svcName  string
		mp       *mapping.Mapping
		opts     core.Options
	}
	var ws []genWorkload

	// The hand-modelled USI campus (Figures 5/9, Table I).
	usi, err := casestudy.BuildModel()
	if err != nil {
		return err
	}
	if _, err := casestudy.PrintingService(usi); err != nil {
		return err
	}
	var usiXML strings.Builder
	if err := uml.Encode(&usiXML, usi); err != nil {
		return err
	}
	ws = append(ws, genWorkload{
		name:     "usi-campus",
		modelXML: usiXML.String(),
		diagram:  casestudy.DiagramName,
		svcName:  casestudy.PrintingServiceName,
		mp:       casestudy.TableIMapping(),
		opts:     core.Options{},
	})

	// The k=8 fat-tree scatter scenario: a model an order of magnitude
	// larger, whose compiled kernel spans >2 bitset words, so import and
	// arena growth dominate the request.
	sc, err := modelgen.FatTreeScenario(8)
	if err != nil {
		return err
	}
	var scXML strings.Builder
	if err := uml.Encode(&scXML, sc.Model); err != nil {
		return err
	}
	ws = append(ws, genWorkload{
		name:     "fat-tree k=8 scatter",
		modelXML: scXML.String(),
		diagram:  sc.Diagram,
		svcName:  sc.Service,
		mp:       sc.Mapping,
		opts:     core.Options{Paths: sc.Paths},
	})

	fmt.Printf("  %-22s %8s %12s %12s %9s\n", "model", "xmlB", "fresh", "pooled", "speedup")
	pool := core.NewGeneratorPool(nil, 0, 0)
	generate := func(g *core.Generator, x *genWorkload) error {
		act, ok := g.Model().Activity(x.svcName)
		if !ok {
			return fmt.Errorf("model has no activity %q", x.svcName)
		}
		svc, err := service.FromActivity(act)
		if err != nil {
			return err
		}
		_, err = g.GenerateContext(ctx, svc, x.mp, "bench", x.opts)
		return err
	}
	for i := range ws {
		x := &ws[i]
		fresh := func() error {
			m, err := uml.Decode(strings.NewReader(x.modelXML))
			if err != nil {
				return err
			}
			g, err := core.NewGeneratorContext(ctx, m, x.diagram)
			if err != nil {
				return err
			}
			return generate(g, x)
		}
		pooled := func() error {
			g, err := pool.Acquire(ctx, x.modelXML, x.diagram)
			if err != nil {
				return err
			}
			defer pool.Release(g)
			return generate(g, x)
		}
		w := warmGenWorkload{Model: x.name, XMLBytes: len(x.modelXML)}
		var err error
		if w.PooledNs, w.FreshNs, w.Speedup, w.Parity, w.RunsPerRep, err = benchPair(pooled, fresh); err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		b.GenerateFloorSpeedup = min(b.GenerateFloorSpeedup, w.Speedup)
		b.Regression = b.Regression || (!w.Parity && w.Speedup < 1)
		b.Generate = append(b.Generate, w)
		fmt.Printf("  %-22s %8d %12s %12s %8.2fx\n", w.Model, w.XMLBytes,
			time.Duration(w.FreshNs), time.Duration(w.PooledNs), w.Speedup)
	}
	if math.IsInf(b.GenerateFloorSpeedup, 0) {
		b.GenerateFloorSpeedup = 0
	}
	fmt.Printf("  cold-generate floor: %.2fx (acceptance floor 3x)\n\n", b.GenerateFloorSpeedup)

	// --- Warm HTTP lane: repeated bytes vs byte-distinct cache hits ---

	var mappingXML bytes.Buffer
	if err := casestudy.TableIMapping().Encode(&mappingXML); err != nil {
		return err
	}
	h := server.New()
	fmt.Printf("  %-22s %10s %12s %14s %9s\n", "route", "allocs/op", "warm", "cold(cached)", "speedup")
	for _, route := range []string{"/api/v1/availability", "/api/v1/qos", "/api/v1/explain"} {
		req := map[string]any{
			"modelXml":   usiXML.String(),
			"diagram":    casestudy.DiagramName,
			"service":    casestudy.PrintingServiceName,
			"mappingXml": mappingXML.String(),
		}
		if route == "/api/v1/availability" {
			req["mcSamples"] = 2000
		}
		base, err := json.Marshal(req)
		if err != nil {
			return err
		}

		body := &warmReplayBody{}
		r := httptest.NewRequest(http.MethodPost, route, nil)
		r.Header.Set(server.RequestIDHeader, "bench")
		w := &warmNullWriter{h: make(http.Header)}
		serveWarm := func() error {
			body.r.Reset(base)
			r.Body = body
			h.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				return fmt.Errorf("%s: status %d", route, w.status)
			}
			w.status = 0
			return nil
		}
		// JSON ignores trailing whitespace, so padding yields byte-distinct
		// requests with identical semantics: warm-lane misses that still hit
		// the result cache after decode + pool acquire.
		pad := 0
		serveCold := func() error {
			pad++
			body.r.Reset(append(append([]byte(nil), base...), bytes.Repeat([]byte{' '}, pad)...))
			r.Body = body
			h.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				return fmt.Errorf("%s: status %d", route, w.status)
			}
			w.status = 0
			return nil
		}

		if err := serveWarm(); err != nil { // the one true cold compute
			return err
		}
		row := warmRouteRow{Route: route}
		row.AllocsPerOp = testing.AllocsPerRun(200, func() { _ = serveWarm() })
		var err2 error
		if row.WarmNs, row.ColdNs, row.Speedup, row.Parity, row.RunsPerRep, err2 = benchPair(serveWarm, serveCold); err2 != nil {
			return err2
		}
		if route != "/api/v1/explain" {
			b.MaxWarmAllocs = max(b.MaxWarmAllocs, row.AllocsPerOp)
		}
		b.Regression = b.Regression || (!row.Parity && row.Speedup < 1)
		b.Routes = append(b.Routes, row)
		fmt.Printf("  %-22s %10.1f %12s %14s %8.2fx\n", row.Route, row.AllocsPerOp,
			time.Duration(row.WarmNs), time.Duration(row.ColdNs), row.Speedup)
	}
	fmt.Printf("  max warm allocs/op (availability, qos): %.1f (acceptance ceiling 0)\n", b.MaxWarmAllocs)
	fmt.Printf("  Mann-Whitney-confirmed regression in any family: %t\n", b.Regression)

	if warmOut != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(warmOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", warmOut)
	}
	return nil
}
