package main

// The traced run. After the measured run, the same seeded sequence is
// replayed in this process, once through the untraced handler
// (server.NewWithConfig(...).ServeHTTP) and once through the ladder, whose
// bench-side spans split each request by layer. The handler's bytes must
// equal the ladder's and what the daemon answered for the same body.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"upsim/internal/obs"
	"upsim/internal/server"
)

// spanRecord is one span of the trace file.
type spanRecord struct {
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since the traced run began
	EndNs   int64  `json:"endNs"`
	Parent  int    `json:"parent"` // index of the parent record, -1 for a request root
	Request string `json:"requestId"`
}

// stageStat is one stage's cost per traced request.
type stageStat struct {
	MeanUS float64 `json:"meanUs"`
	P50US  float64 `json:"p50Us"`
	// TopLevel marks the ladder's direct stages, whose sum over the ladder's
	// request time is the coverage; the others are nested inside one of them.
	TopLevel bool `json:"topLevel"`
}

// traceResult summarises the traced run.
type traceResult struct {
	Requests      int                   `json:"requests"`
	Compared      int                   `json:"comparedDistinctBodies"`
	HandlerMeanUS float64               `json:"handlerMeanUs"`
	HandlerP50US  float64               `json:"handlerP50Us"`
	LadderMeanUS  float64               `json:"ladderMeanUs"`
	Coverage      float64               `json:"coverage"`
	OverheadPct   float64               `json:"overheadPct"`
	Stages        map[string]*stageStat `json:"stages"`
}

// The traced run replays at least minTraced requests of the sequence, and
// goes on up to maxTraced until compareTarget distinct bodies (or every
// body of a finite corpus) have been byte-compared with the daemon.
const (
	minTraced     = 200
	maxTraced     = 600
	compareTarget = 200
)

// tracedRun replays the workload in process. chk holds the daemon's
// response digests; outDir receives trace-<workload>.json.
func tracedRun(w *workload, chk *checker, smoke bool, outDir string) (*traceResult, error) {
	minReqs, maxReqs, target := uint64(minTraced), uint64(maxTraced), compareTarget
	if w.distinct > 0 {
		target = min(target, w.distinct)
	}
	if smoke {
		minReqs, maxReqs, target = 20, 20, 0
	}
	// One batch worker keeps the handler's batch sequential like the
	// ladder's, so their stage sums are comparable.
	h := server.NewWithConfig(server.Config{BatchWorkers: 1, Prewarm: true})
	l := newLadder()

	handle := func(req *request) ([]byte, time.Duration, error) {
		r := httptest.NewRequest(http.MethodPost, req.route, bytes.NewReader(req.body))
		r.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, r)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return nil, d, fmt.Errorf("%s %s: handler status %d: %.200s", req.route, req.id, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), d, nil
	}
	l.priming = true
	for i := range w.prime {
		req := &w.prime[i]
		want, _, err := handle(req)
		if err != nil {
			return nil, err
		}
		got, err := l.serve(context.Background(), req.route, req.body)
		if err != nil {
			return nil, fmt.Errorf("ladder priming %s: %w", req.id, err)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("ladder priming %s: reply differs from the handler's", req.id)
		}
	}
	l.priming = false
	runtime.GC()

	var (
		records  []spanRecord
		handler  []float64
		ladderUS []float64
		perReq   = map[string][]float64{}
		topLevel = map[string]bool{}
		compared = map[string]bool{}
		origin   = time.Now()
	)
	for i := uint64(0); i < maxReqs && (i < minReqs || len(compared) < target); i++ {
		req := w.next(i)
		want, hd, err := handle(&req)
		if err != nil {
			return nil, err
		}
		if d, ok := chk.digest(req.id); ok {
			if d != responseDigest(req.route, want) {
				return nil, fmt.Errorf("%s %s: in-process reply differs from the daemon's", req.route, req.id)
			}
			compared[req.id] = true
		}

		ctx, root := obs.StartSpan(context.Background(), "request")
		got, err := l.serve(ctx, req.route, req.body)
		root.End()
		if err != nil {
			return nil, fmt.Errorf("ladder %s %s: %w", req.route, req.id, err)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("ladder %s %s: reply differs from the handler's", req.route, req.id)
		}

		handler = append(handler, us(hd))
		ladderUS = append(ladderUS, us(root.Duration()))
		sums := map[string]float64{}
		var walk func(sp *obs.Span, parent, depth int)
		walk = func(sp *obs.Span, parent, depth int) {
			idx := len(records)
			records = append(records, spanRecord{
				Name:    sp.Name(),
				StartNs: sp.Start().Sub(origin).Nanoseconds(),
				EndNs:   sp.EndTime().Sub(origin).Nanoseconds(),
				Parent:  parent,
				Request: req.id,
			})
			if depth > 0 {
				sums[sp.Name()] += us(sp.Duration())
				if depth == 1 {
					topLevel[sp.Name()] = true
				}
			}
			for _, c := range sp.Children() {
				walk(c, idx, depth+1)
			}
		}
		walk(root, -1, 0)
		n := len(handler)
		for name, v := range sums {
			// A stage absent from earlier requests took 0 µs in them.
			for len(perReq[name]) < n-1 {
				perReq[name] = append(perReq[name], 0)
			}
			perReq[name] = append(perReq[name], v)
		}
	}
	if len(compared) < target {
		return nil, fmt.Errorf("traced run compared %d distinct bodies with the daemon, want %d", len(compared), target)
	}

	n := len(handler)
	res := &traceResult{
		Requests:      n,
		Compared:      len(compared),
		HandlerMeanUS: mean(handler),
		HandlerP50US:  quantile(handler, 0.5),
		LadderMeanUS:  mean(ladderUS),
		Stages:        map[string]*stageStat{},
	}
	covered := 0.0
	for name, vs := range perReq {
		for len(vs) < n {
			vs = append(vs, 0)
		}
		st := &stageStat{MeanUS: mean(vs), P50US: quantile(vs, 0.5), TopLevel: topLevel[name]}
		res.Stages[name] = st
		if st.TopLevel {
			covered += st.MeanUS
		}
	}
	// Coverage is the share of the ladder's own request time its stages
	// account for; how closely the ladder tracks the handler is the overhead.
	res.Coverage = covered / res.LadderMeanUS
	res.OverheadPct = (res.LadderMeanUS - res.HandlerMeanUS) / res.HandlerMeanUS * 100
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), records); err != nil {
		return nil, err
	}
	return res, nil
}

func writeTrace(path string, records []spanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(records)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// quantile is every percentile the bench reports: the q-quantile with the
// exclusive method of Python's statistics.quantiles, which interpolates at
// the 1-based position q·(n+1) and clamps to the extremes. At q = 0.5 it is
// the usual median.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	x := q * float64(len(s)+1)
	j := int(math.Floor(x))
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (x-float64(j))*(s[j]-s[j-1])
}
