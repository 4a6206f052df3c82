package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/mapping"
	"upsim/internal/modelgen"
	"upsim/internal/service"
	"upsim/internal/testutil"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// warmFixture returns the case-study model XML and Table I mapping XML
// without going through HTTP.
func warmFixture(t testing.TB) (modelXML, mappingXML string) {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		t.Fatal(err)
	}
	var mb strings.Builder
	if err := uml.Encode(&mb, m); err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := casestudy.TableIMapping().Encode(&pb); err != nil {
		t.Fatal(err)
	}
	return mb.String(), pb.String()
}

// warmBody marshals one analysis request body for the given route. For the
// batch route the request is wrapped as a single-item batch.
func warmBody(t *testing.T, route, modelXML, mappingXML string) []byte {
	t.Helper()
	req := map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
	}
	if route == "/api/v1/availability" {
		req["mcSamples"] = 2000
	}
	var payload any = req
	if route == "/api/v1/batch" {
		req["op"] = OpQoS
		payload = map[string]any{"items": []map[string]any{req}}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayableBody is a resettable io.ReadCloser so one http.Request can be
// served repeatedly without per-iteration allocation.
type replayableBody struct{ r bytes.Reader }

func (b *replayableBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayableBody) Close() error               { return nil }

// nullResponseWriter discards the response body while keeping a persistent
// header map, so repeated serves reuse every byte of writer state.
type nullResponseWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.bytes += len(p)
	return len(p), nil
}

// TestWarmLaneReplaysIdenticalBytes pins the functional contract: a repeated
// analysis request is answered byte-identically by the warm lane, for every
// warm route.
func TestWarmLaneReplaysIdenticalBytes(t *testing.T) {
	modelXML, mappingXML := warmFixture(t)
	h := New()
	for _, route := range []string{"/api/v1/availability", "/api/v1/qos", "/api/v1/explain", "/api/v1/batch"} {
		t.Run(route, func(t *testing.T) {
			body := warmBody(t, route, modelXML, mappingXML)
			serve := func() *httptest.ResponseRecorder {
				r := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				return w
			}
			cold := serve()
			if cold.Code != http.StatusOK {
				t.Fatalf("cold %s = %d: %s", route, cold.Code, cold.Body.String())
			}
			hits := mWarmHits.With(route).Value()
			warm := serve()
			if warm.Code != http.StatusOK {
				t.Fatalf("warm %s = %d: %s", route, warm.Code, warm.Body.String())
			}
			if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
				t.Fatal("warm replay differs from the cold response")
			}
			if got := mWarmHits.With(route).Value(); got != hits+1 {
				t.Fatalf("warm hit counter went %d -> %d, want +1", hits, got)
			}
		})
	}
}

// TestWarmHitZeroAllocs is the tentpole guard: once a route is warm, a
// repeated request performs zero heap allocations from route match to
// cached-bytes write.
func TestWarmHitZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	modelXML, mappingXML := warmFixture(t)
	h := New()
	for _, route := range []string{"/api/v1/availability", "/api/v1/qos", "/api/v1/explain", "/api/v1/batch"} {
		t.Run(route, func(t *testing.T) {
			payload := warmBody(t, route, modelXML, mappingXML)
			body := &replayableBody{}
			r := httptest.NewRequest(http.MethodPost, route, nil)
			r.Header.Set(RequestIDHeader, "warm-guard")
			w := &nullResponseWriter{h: make(http.Header)}
			serve := func() {
				body.r.Reset(payload)
				r.Body = body
				h.ServeHTTP(w, r)
			}
			serve() // cold: compute and store
			if w.status != http.StatusOK {
				t.Fatalf("cold status = %d", w.status)
			}
			w.status = 0
			serve() // warm once more so every pool and header bucket exists
			allocs := testing.AllocsPerRun(100, serve)
			if allocs != 0 {
				t.Fatalf("warm %s hit allocates %.1f objects per run, want 0", route, allocs)
			}
			if w.bytes == 0 {
				t.Fatal("warm lane wrote no response bytes")
			}
		})
	}
}

// TestGenerateCacheHitAllocs bounds a generation-cache hit through
// api.generate: pool acquire, service and mapping parse and one content
// address. The mapping scanner and the direct key writer took a hit from
// 307 allocations to 38, and the "cache" span, opened only under a
// caller's trace, to 32, the generator's per-activity composite with the
// uncopied stage text to 9, and parsing the mapping from the request's
// string instead of through a reader and a copy to 6: the mapping parse,
// the pool key and the key string. The route takes the key from the
// returned Result instead of deriving it a second time.
func TestGenerateCacheHitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts counts")
	}
	modelXML, mappingXML := warmFixture(t)
	a := newAPI(Config{})
	req := &generateRequest{
		modelInput: modelInput{ModelXML: modelXML, Diagram: casestudy.DiagramName},
		Service:    casestudy.PrintingServiceName,
		MappingXML: mappingXML,
	}
	ctx := context.Background()
	res, err := a.generate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == "" {
		t.Fatal("cached generation carries no key")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if hit, err := a.generate(ctx, req); err != nil || hit != res {
			t.Fatalf("repeat generate = %p, %v; want the cached %p", hit, err, res)
		}
	})
	const ceiling = 7 // measured 6
	t.Logf("generation-cache hit: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("generation-cache hit allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// TestColdPathsAllocs pins the allocations of a churn request: POST
// /api/v1/paths with a never-seen 10-edge-switch campus model, so every
// request misses the warm lane and the generator pool and pays the XMI
// decode, the Step 5 check and the kernel compile. As the churn traffic
// does, each request rewrites the Client MTBF, so no two bodies repeat.
// Measured on go1.24: 181 allocs for full enumeration and 188 for k=5 by
// throughput (185 and 192 while the middleware stored the request ID in the
// request context and the kernel kept an unread throughput copy of its cost
// view, 189 and 196 with the Step 5 span, 319 and 326 before the scanner
// slabs and the count-sized build); the ceilings leave about 10 %.
func TestColdPathsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts counts")
	}
	g, err := topology.Campus(topology.CampusParams{EdgeSwitches: 10, ClientsPerEdge: 6, ServersPerSwitch: 4, RedundantCore: true})
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = "31415.926535"
	m, err := modelgen.Build("campus", g, modelgen.Params{Classes: map[string]modelgen.ClassParams{
		"Client": {MTBF: 31415.926535, MTTR: 24},
		"Server": {MTBF: 27182.818284, MTTR: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := service.NewSequential(m, "rpc", "request", "process", "reply"); err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	if err := uml.Encode(&doc, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.String(), sentinel) {
		t.Fatal("campus model lost its MTBF sentinel")
	}
	h := New()
	seq := 0
	for _, tc := range []struct {
		name    string
		k       int
		cost    string
		ceiling float64
	}{
		{"all", 0, "", 202},
		{"k5-throughput", 5, "throughput", 211},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 20
			bodies := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
			for i := range bodies {
				seq++
				req := obj{
					"modelXml": strings.ReplaceAll(doc.String(), sentinel, fmt.Sprintf("%d.%06d", 2000+seq, seq)),
					"diagram":  "infrastructure", "from": "t1", "to": "srv1",
				}
				if tc.k > 0 {
					req["k"], req["cost"] = tc.k, tc.cost
				}
				bodies[i] = []byte(mustJSON(t, req))
			}
			body := &replayableBody{}
			r := httptest.NewRequest(http.MethodPost, "/api/v1/paths", nil)
			w := &nullResponseWriter{h: make(http.Header)}
			n := 0
			allocs := testing.AllocsPerRun(runs, func() {
				body.r.Reset(bodies[n])
				n++
				r.Body = body
				w.status = 0
				h.ServeHTTP(w, r)
				if w.status != http.StatusOK {
					t.Fatalf("request %d: status %d", n, w.status)
				}
			})
			t.Logf("cold POST /api/v1/paths (%s): %.0f allocs", tc.name, allocs)
			if allocs > tc.ceiling {
				t.Errorf("cold POST /api/v1/paths (%s) allocates %.0f objects, ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
}

// TestColdAnalysisAllocs pins the allocations of an analyze request: POST
// /api/v1/availability, /qos and /explain on one warm 8-edge-switch campus
// model, each request with a never-seen user perspective (client t calls
// server s1, which calls s2, which replies to t), so every request misses
// the warm lane and both caches and runs Steps 6–8 plus the §VII analysis.
// Measured on go1.24: 112 (availability), 117 (qos) and 280 (explain)
// allocs; 115, 120 and 283 while the mapping was parsed through a reader
// and a copy of its text; 155, 160 and 546 while every request rebuilt its composite
// service, compile made one bitset per path set and explain built its
// trees one heap node per hop; 158, 163 and 549 while the middleware
// stored the request ID in the request context; 304, 302 and 722 while
// every pipeline stage opened
// an orphan root span, Step 8 grew its diagram one instance and link at a
// time, every path set was its own slice and responsiveness rebuilt the
// path sets even when the hop budget kept them all. The ceilings leave
// about 10 %.
func TestColdAnalysisAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts counts")
	}
	p := topology.CampusParams{EdgeSwitches: 8, ClientsPerEdge: 6, ServersPerSwitch: 4, RedundantCore: true}
	g, err := topology.Campus(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := modelgen.Build("campus", g, modelgen.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := service.NewSequential(m, "rpc", "request", "process", "reply"); err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	if err := uml.Encode(&doc, m); err != nil {
		t.Fatal(err)
	}
	clients, servers := p.EdgeSwitches*p.ClientsPerEdge, 2*p.ServersPerSwitch
	seq := 0
	// perspective returns the mapping of the seq-th perspective: every
	// call a distinct (t, s1, s2) triple.
	perspective := func() string {
		c, rest := seq%clients, seq/clients
		s1, s2 := rest%servers, (rest/servers)%(servers-1)
		if s2 >= s1 {
			s2++
		}
		seq++
		tn, n1, n2 := fmt.Sprintf("t%d", c+1), fmt.Sprintf("srv%d", s1+1), fmt.Sprintf("srv%d", s2+1)
		mp := mapping.New()
		for _, pair := range []mapping.Pair{
			{AtomicService: "request", Requester: tn, Provider: n1},
			{AtomicService: "process", Requester: n1, Provider: n2},
			{AtomicService: "reply", Requester: n2, Provider: tn},
		} {
			if err := mp.Add(pair); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := mp.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	h := New()
	prime := func(route string) []byte {
		req := obj{"modelXml": doc.String(), "diagram": "infrastructure", "service": "rpc", "mappingXml": perspective()}
		if route == "/api/v1/availability" {
			req["mcSamples"], req["seed"] = 20000, 1
		}
		return []byte(mustJSON(t, req))
	}
	for _, tc := range []struct {
		route   string
		ceiling float64
	}{
		{"/api/v1/availability", 124},
		{"/api/v1/qos", 129},
		{"/api/v1/explain", 309},
	} {
		t.Run(tc.route, func(t *testing.T) {
			const runs = 20
			bodies := make([][]byte, runs+2) // one priming call, one AllocsPerRun warm-up
			for i := range bodies {
				bodies[i] = prime(tc.route)
			}
			body := &replayableBody{}
			r := httptest.NewRequest(http.MethodPost, tc.route, nil)
			w := &nullResponseWriter{h: make(http.Header)}
			n := 0
			serve := func() {
				body.r.Reset(bodies[n])
				n++
				r.Body = body
				w.status = 0
				h.ServeHTTP(w, r)
				if w.status != http.StatusOK {
					t.Fatalf("request %d: status %d", n, w.status)
				}
			}
			serve() // the model's pool build and first-use buffers
			allocs := testing.AllocsPerRun(runs, serve)
			t.Logf("cold POST %s: %.0f allocs", tc.route, allocs)
			if allocs > tc.ceiling {
				t.Errorf("cold POST %s allocates %.0f objects, ceiling %.0f", tc.route, allocs, tc.ceiling)
			}
		})
	}
}

// TestWarmLaneConcurrent hammers one warm route from many goroutines with
// two distinct bodies, so pooled warmReqs, the generator pool and the cache
// run under the race detector.
func TestWarmLaneConcurrent(t *testing.T) {
	modelXML, mappingXML := warmFixture(t)
	h := New()
	const route = "/api/v1/qos"
	bodies := [][]byte{
		warmBody(t, route, modelXML, mappingXML),
		warmBody(t, route, modelXML+" ", mappingXML), // distinct bytes, same semantics
	}
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(bodies[(g+i)%2]))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					errc <- w.Body.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatalf("concurrent warm request failed: %s", msg)
	}
}

// TestPathsHardLimit422 pins the structured hard-limit error of
// /api/v1/paths: exceeding the enumeration bound is a 422 carrying the
// budget-error shape, not a bare 500 (or an unbounded search).
func TestPathsHardLimit422(t *testing.T) {
	old := pathsHardLimit
	pathsHardLimit = 1
	defer func() { pathsHardLimit = old }()

	modelXML, _ := warmFixture(t)
	h := New()
	body, err := json.Marshal(map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"from":     "t1",
		"to":       "printS",
	})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/api/v1/paths", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", w.Code, w.Body.String())
	}
	var resp budgetErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding 422 body: %v", err)
	}
	if resp.Kind != "paths" || resp.Limit != 1 || resp.Need != 2 {
		t.Fatalf("budget shape = %+v", resp)
	}
	if resp.AtomicService != "t1→printS" {
		t.Fatalf("atomicService = %q", resp.AtomicService)
	}
	if resp.Error == "" {
		t.Fatal("422 body lacks the error message")
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestWarmFillBounded: an oversize body is read no further than one byte
// past MaxRequestBytes, is neither hashed nor probed, answers the canonical
// 400, and its buffer does not go back into the pool.
func TestWarmFillBounded(t *testing.T) {
	const size = MaxRequestBytes + 5000
	a := newAPI(Config{})
	wr := new(warmReq)
	wr.key = append(wr.key, "warm|qos|stale"...)
	cr := &countingReader{r: strings.NewReader(strings.Repeat(" ", size))}
	r := httptest.NewRequest(http.MethodPost, "/api/v1/qos", cr)
	if a.tryWarm(wr, warmPrefixQoS, httptest.NewRecorder(), r) {
		t.Fatal("oversize body served as a warm hit")
	}
	if cr.n != MaxRequestBytes+1 {
		t.Errorf("read %d bytes of a %d-byte body, want %d", cr.n, size, MaxRequestBytes+1)
	}
	if wr.err != errBodyTooLarge || len(wr.key) != 0 {
		t.Errorf("fill error %v, key %q; want errBodyTooLarge and no key", wr.err, wr.key)
	}
	wr.shrink()
	if wr.buf != nil {
		t.Errorf("a %d-byte buffer stays poolable", cap(wr.buf))
	}

	h := New()
	for _, route := range []string{"/api/v1/qos", "/api/v1/paths", "/api/v1/lint"} {
		body := `{"diagram":"` + strings.Repeat("x", size) + `"}`
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		const want = `{"error":"invalid request body: http: request body too large"}` + "\n"
		if w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Errorf("%s: %d %s, want 400 %s", route, w.Code, w.Body.String(), want)
		}
	}
}

// TestWarmFillPresized: a body whose Content-Length is known is read into
// a buffer allocated once at that size, not doubled up from 4 KB; an
// unknown length still reads the whole body.
func TestWarmFillPresized(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	body := strings.Repeat("x", 256<<10)
	rd := strings.NewReader(body)
	wr := new(warmReq)
	allocs := testing.AllocsPerRun(20, func() {
		wr.buf = nil
		rd.Reset(body)
		if err := wr.fill(rd, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("filling a fresh warmReq from a %d-byte body with its length allocates %.1f objects, want 1", len(body), allocs)
	}
	for _, size := range []int64{int64(len(body)), -1, 10, MaxRequestBytes} {
		wr.buf = nil
		rd.Reset(body)
		if err := wr.fill(rd, size); err != nil || string(wr.buf) != body {
			t.Errorf("size %d: read %d bytes (err %v), want the whole %d-byte body", size, len(wr.buf), err, len(body))
		}
	}
}

// TestWarmFillDeclaredLengthBounded: Content-Length is the client's claim,
// so a request declaring the maximum size and sending one byte gets a
// buffer of at most maxPooledBody+1 bytes, and a body longer than that
// bound is still read whole.
func TestWarmFillDeclaredLengthBounded(t *testing.T) {
	wr := new(warmReq)
	if err := wr.fill(strings.NewReader("x"), MaxRequestBytes); err != nil {
		t.Fatal(err)
	}
	if got := cap(wr.buf); got > maxPooledBody+1 {
		t.Errorf("declared length %d with a 1-byte body allocates a %d-byte buffer, want at most %d", MaxRequestBytes, got, maxPooledBody+1)
	}
	body := strings.Repeat("y", maxPooledBody+maxPooledBody/2)
	wr.buf = nil
	if err := wr.fill(strings.NewReader(body), int64(len(body))); err != nil || string(wr.buf) != body {
		t.Errorf("read %d bytes (err %v), want the whole %d-byte body", len(wr.buf), err, len(body))
	}
}
