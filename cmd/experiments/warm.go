package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"upsim/internal/casestudy"
	"upsim/internal/server"
	"upsim/internal/uml"
)

// warmRouteRow is one row of the BENCH_warm.json record: the latency of an
// analysis request that misses the byte-level warm lane but hits the
// result cache, so it still pays JSON decode and generator-pool acquire.
type warmRouteRow struct {
	Route        string `json:"route"`
	ColdCacheHit timing `json:"coldCacheHit"`
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

// warmPadWidth is the whitespace tail that makes each timed request
// byte-distinct: 4^16 distinct bodies, all of one length.
const warmPadWidth = 16

// expWarm times the cold cache hit of each warm-lane route through the
// real handler on the USI case study. The warm hits themselves are the
// bench module's replay workload, and TestWarmHitZeroAllocs pins their
// allocations.
func expWarm() (any, error) {
	usi, err := casestudy.BuildModel()
	if err != nil {
		return nil, err
	}
	if _, err := casestudy.PrintingService(usi); err != nil {
		return nil, err
	}
	var usiXML strings.Builder
	if err := uml.Encode(&usiXML, usi); err != nil {
		return nil, err
	}
	var mappingXML bytes.Buffer
	if err := casestudy.TableIMapping().Encode(&mappingXML); err != nil {
		return nil, err
	}

	h := server.New()
	fmt.Printf("  %-22s %20s\n", "route", "cold cache hit")
	var rows []warmRouteRow
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
			return nil, err
		}
		// JSON ignores trailing whitespace, so a tail of spaces, tabs and
		// line ends spelling a counter in base 4 yields byte-distinct
		// requests of one length with identical semantics: warm-lane
		// misses that still hit the result cache after decode and pool
		// acquire.
		data := append(base, bytes.Repeat([]byte{' '}, warmPadWidth)...)
		tail := data[len(base):]
		body := &warmReplayBody{}
		r := httptest.NewRequest(http.MethodPost, route, nil)
		r.Header.Set(server.RequestIDHeader, "bench")
		w := &warmNullWriter{h: make(http.Header)}
		n := 0
		serve := func() error {
			for i, v := 0, n; i < warmPadWidth; i, v = i+1, v>>2 {
				tail[i] = " \t\n\r"[v&3]
			}
			n++
			body.r.Reset(data)
			r.Body = body
			h.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				return fmt.Errorf("%s: status %d", route, w.status)
			}
			w.status = 0
			return nil
		}
		if err := serve(); err != nil { // the one true cold compute
			return nil, err
		}
		row := warmRouteRow{Route: route}
		if row.ColdCacheHit, err = measure(serve); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fmt.Printf("  %-22s %20v\n", row.Route, row.ColdCacheHit)
	}
	return rows, nil
}
