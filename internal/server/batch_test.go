package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"upsim/internal/cache"
	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
)

func batchItem(modelXML, mappingXML, op, name string) map[string]any {
	it := map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
		"name":       name,
	}
	if op != "" {
		it["op"] = op
	}
	if op == "availability" {
		it["mcSamples"] = 1000
	}
	return it
}

func TestBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	resp, body := postJSON(t, ts, "/api/v1/batch", map[string]any{
		"items": []map[string]any{
			batchItem(modelXML, mappingXML, "", "upsim"),
			batchItem(modelXML, mappingXML, "availability", "upsim"),
			batchItem(modelXML, mappingXML, "qos", "upsim"),
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 0 {
		t.Fatalf("errors = %d, body %s", out.Errors, body)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	wantOps := []string{"generate", "availability", "qos"}
	for i, r := range out.Results {
		if r.Index != i || r.Op != wantOps[i] {
			t.Errorf("result[%d] = index %d op %q, want index %d op %q", i, r.Index, r.Op, i, wantOps[i])
		}
		if r.Error != "" {
			t.Errorf("result[%d] error: %s", i, r.Error)
		}
		if r.Result == nil {
			t.Errorf("result[%d] has no payload", i)
		}
	}
	// All three ops share one generate input, so the pipeline ran once (one
	// generation miss, two hits-or-shares); the availability and qos items
	// additionally each populate their own analysis cache entry, adding one
	// first-time miss apiece.
	if out.Cache.Misses != 3 {
		t.Errorf("cache misses = %d, want 3 (one generation + two analysis entries)", out.Cache.Misses)
	}
	if out.Cache.Hits+out.Cache.Shared != 2 {
		t.Errorf("cache hits+shared = %d+%d, want 2", out.Cache.Hits, out.Cache.Shared)
	}
}

// TestBatchDedupAndWarmCache asserts the advertised fan-out semantics: N
// identical items compute the pipeline once (the survivors dedup through
// the shared cache or the per-item warm lane), and a repeated identical
// batch replays the memoised response bytes without decoding or fan-out.
func TestBatchDedupAndWarmCache(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	const n = 8
	items := make([]map[string]any, n)
	for i := range items {
		items[i] = batchItem(modelXML, mappingXML, "", "upsim")
	}
	req := map[string]any{"items": items, "workers": 4}

	resp, coldBody := postJSON(t, ts, "/api/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, coldBody)
	}
	var cold BatchResponse
	if err := json.Unmarshal(coldBody, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Errors != 0 {
		t.Fatalf("cold errors = %d, body %s", cold.Errors, coldBody)
	}
	// One pipeline run no matter how the 8 items interleave: the shared
	// cache records exactly one generation miss. (How the other 7 dedup —
	// cache hit, singleflight share or per-item warm replay — depends on
	// worker timing, so only the miss count is pinned.)
	if cold.Cache.Misses != 1 {
		t.Errorf("cold cache = %s; want exactly 1 miss", cold.Cache)
	}

	// The repeated batch rides the whole-body warm lane: the memoised bytes
	// (including the embedded cache-stats snapshot) replay verbatim.
	resp, warmBody := postJSON(t, ts, "/api/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d, body %s", resp.StatusCode, warmBody)
	}
	if !bytes.Equal(warmBody, coldBody) {
		t.Errorf("warm batch response differs from memoised cold response:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
}

// TestBatchItemWarmKeyNormalisesOp pins that an item's warm key hashes its
// normalised op: op "" and op "generate" are the same item, so the second
// spelling replays the result the first memoised.
func TestBatchItemWarmKeyNormalisesOp(t *testing.T) {
	modelXML, mappingXML := warmFixture(t)
	h := New()
	hits := mWarmHits.With("/api/v1/batch")
	for i, op := range []string{"", OpGenerate} {
		body, err := json.Marshal(map[string]any{
			"items": []map[string]any{batchItem(modelXML, mappingXML, op, "upsim")},
		})
		if err != nil {
			t.Fatal(err)
		}
		before := hits.Value()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("op %q: status %d: %s", op, w.Code, w.Body.String())
		}
		if got, want := hits.Value(), before+uint64(i); got != want {
			t.Fatalf("op %q: batch warm hits %d -> %d, want +%d", op, before, got, i)
		}
	}
}

// TestSingleRoutesShareBatchCache asserts that /api/v1/generate and the
// batch route run through the same cache instance.
func TestSingleRoutesShareBatchCache(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	single := map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
		"name":       "upsim",
	}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/api/v1/generate", single); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts, "/api/v1/batch", map[string]any{
		"items": []map[string]any{batchItem(modelXML, mappingXML, "", "upsim")},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// First single post missed, second hit, batch item hit again.
	if out.Cache.Misses != 1 || out.Cache.Hits != 2 {
		t.Errorf("cache = %s; want 1 miss and 2 hits (single routes must share the batch cache)", out.Cache)
	}
}

func TestBatchValidation(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	resp, body := postJSON(t, ts, "/api/v1/batch", map[string]any{"items": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty items: status = %d, body %s", resp.StatusCode, body)
	}

	// Per-item failures are data, not transport errors: the batch still
	// returns 200 with Error set at the failed index.
	bad := batchItem(modelXML, mappingXML, "divine", "upsim")
	broken := batchItem("<broken", mappingXML, "", "upsim")
	good := batchItem(modelXML, mappingXML, "", "upsim")
	resp, body = postJSON(t, ts, "/api/v1/batch", map[string]any{
		"items": []map[string]any{bad, broken, good},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 2 {
		t.Fatalf("errors = %d, want 2; body %s", out.Errors, body)
	}
	if !strings.Contains(out.Results[0].Error, `unknown op "divine"`) {
		t.Errorf("result[0] error = %q, want unknown-op message", out.Results[0].Error)
	}
	if out.Results[1].Error == "" || out.Results[1].Result != nil {
		t.Errorf("result[1] = %+v, want a decode error", out.Results[1])
	}
	if out.Results[2].Error != "" || out.Results[2].Result == nil {
		t.Errorf("result[2] = %+v, want success", out.Results[2])
	}
}

func TestRunBatchLimits(t *testing.T) {
	c := cache.New(4)
	if _, err := RunBatch(context.Background(), c, 0, &BatchRequest{}); err == nil {
		t.Error("empty batch must fail")
	}
	over := &BatchRequest{Items: make([]BatchItem, MaxBatchItems+1)}
	if _, err := RunBatch(context.Background(), c, 0, over); err == nil {
		t.Errorf("%d items must exceed the limit", MaxBatchItems+1)
	}
}

// TestAnalysisCacheReplay asserts the §VII analysis itself is cached per
// generation content hash: a replayed availability/qos item is served
// without recompiling the dependability kernel, an item that sends the
// ignored legacyKernel flag shares the entry, and the numbers equal the
// ServiceStructure methods called directly on the structure FromResult
// builds (internal/depend pins those to its map-based oracle).
func TestAnalysisCacheReplay(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	compiled := BatchItem{
		Op: OpAvailability, ModelXML: modelXML, Diagram: casestudy.DiagramName,
		Service: casestudy.PrintingServiceName, MappingXML: mappingXML,
		Name: "upsim", MCSamples: 1000,
	}
	legacy := compiled
	legacy.LegacyKernel = true
	qos := BatchItem{
		Op: OpQoS, ModelXML: modelXML, Diagram: casestudy.DiagramName,
		Service: casestudy.PrintingServiceName, MappingXML: mappingXML,
		Name: "upsim",
	}
	req := &BatchRequest{Items: []BatchItem{compiled, legacy, qos}, Workers: 1}

	c := cache.New(0)
	cold, err := RunBatch(context.Background(), c, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Errors != 0 {
		t.Fatalf("cold batch errors: %+v", cold.Results)
	}
	// 1 generation miss + 2 analysis misses (availability once, whatever
	// legacyKernel says; qos once).
	if cold.Cache.Misses != 3 {
		t.Errorf("cold misses = %d, want 3", cold.Cache.Misses)
	}

	warm, err := RunBatch(context.Background(), c, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm batch errors: %+v", warm.Results)
	}
	if warm.Cache.Misses != 3 {
		t.Errorf("warm replay recomputed: misses = %d, want still 3", warm.Cache.Misses)
	}

	cr := cold.Results[0].Result.(availabilityResponse)
	if lr := cold.Results[1].Result.(availabilityResponse); cr != lr {
		t.Errorf("legacyKernel item %+v != %+v", lr, cr)
	}
	// The pipeline's numbers equal a direct analysis bit for bit.
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := casestudy.PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, casestudy.TableIMapping(), "upsim", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, _, avail, err := depend.FromResult(res, depend.ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := st.Exact(avail)
	if err != nil {
		t.Fatal(err)
	}
	mc, se, err := st.MonteCarlo(avail, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Exact != exact || cr.MonteCarlo != mc || cr.MCStdErr != se || cr.Components != len(st.Components()) {
		t.Errorf("availability %+v, direct exact %v, Monte Carlo %v ± %v, %d components",
			cr, exact, mc, se, len(st.Components()))
	}
}

// TestBatchItemWarmKeyFields: an item's warm key changes with every field
// but the ignored LegacyKernel, and with bytes moved across a field
// boundary.
func TestBatchItemWarmKeyFields(t *testing.T) {
	a := &api{warm: cache.New(0)}
	key := func(it BatchItem) string { return a.itemWarmKey(it.Op, &it) }
	base := BatchItem{
		Op: OpQoS, ModelXML: "m", Diagram: "d", Service: "s", MappingXML: "p", Name: "n",
		MCSamples: 1, Seed: 2, MaxHops: 3, From: "f", To: "t", MaxDepth: 4, MaxPaths: 5, K: 6, Cost: "c",
	}
	seen := map[string]string{key(base): "base"}
	v := reflect.ValueOf(base)
	for i := 0; i < v.NumField(); i++ {
		it := base
		f := reflect.ValueOf(&it).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("field %s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
		name := v.Type().Field(i).Name
		if name == "LegacyKernel" {
			// Accepted and ignored: it must not split the warm entry.
			if key(it) != key(base) {
				t.Error("LegacyKernel changes the item key")
			}
			continue
		}
		if prev, dup := seen[key(it)]; dup {
			t.Errorf("changing %s keeps the key of %s", name, prev)
		}
		seen[key(it)] = name
	}
	for _, pair := range [][2]BatchItem{
		{{From: "ab", To: "c"}, {From: "a", To: "bc"}},
		{{ModelXML: "m", Diagram: ""}, {ModelXML: "", Diagram: "m"}},
		{{Name: "x"}, {From: "x"}},
	} {
		if key(pair[0]) == key(pair[1]) {
			t.Errorf("%+v and %+v share a key", pair[0], pair[1])
		}
	}
	if !strings.HasPrefix(key(base), warmPrefixItem) || len(key(base)) != len(warmPrefixItem)+64 {
		t.Errorf("key %q is not the item prefix and a hex SHA-256", key(base))
	}
}

// FuzzBatchRoute drives POST /api/v1/batch end to end with arbitrary
// bodies, seeded with the route-contract batch bodies. The route answers
// 200 or 400 — never a 500 or a panic; every 400 is {"error": …} with a
// message; a 200 carries one result per item, each with exactly one of
// result and error; an accepted body answers the same results bytes on
// the shared handler as on a fresh one; and sending the ignored
// legacyKernel on every item returns the same results bytes.
func FuzzBatchRoute(f *testing.F) {
	for _, c := range contractCases(f) {
		// The oversize-body seed is left out: mutating 8 MiB inputs stalls
		// the fuzzer, and the contract pins that 400.
		if c.method == http.MethodPost && c.target == "/api/v1/batch" && len(c.body) <= MaxRequestBytes {
			f.Add([]byte(c.body))
		}
	}
	h := New()
	f.Fuzz(func(t *testing.T, body []byte) {
		// Bound each input's work. The route decodes strictly, so a body it
		// accepts decodes to the same items here.
		var req BatchRequest
		if json.Unmarshal(body, &req) == nil {
			if len(req.Items) > 4 {
				return
			}
			for _, it := range req.Items {
				if it.Op == OpAvailability && (it.MCSamples <= 0 || it.MCSamples > 20000) {
					return
				}
			}
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/batch", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			var refusal struct {
				Error *string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &refusal); err != nil || refusal.Error == nil || *refusal.Error == "" {
				t.Fatalf("400 body is not {\"error\": …} with a message (%v): %s", err, w.Body.Bytes())
			}
			return
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		var resp struct {
			Results []map[string]json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(req.Items) {
			t.Fatalf("%d results for %d items (%v): %s", len(resp.Results), len(req.Items), err, w.Body.Bytes())
		}
		for i, r := range resp.Results {
			_, hasResult := r["result"]
			_, hasError := r["error"]
			if hasResult == hasError {
				t.Fatalf("result %d carries result=%t error=%t: %s", i, hasResult, hasError, w.Body.Bytes())
			}
		}

		// The accepted body, re-encoded with one worker, answers the same
		// results bytes on the shared fuzz handler, whatever it served
		// before, as on a fresh one.
		req.Workers = 1
		results := func(h http.Handler, r *BatchRequest) []byte {
			body, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/batch", bytes.NewReader(body)))
			var resp struct {
				Results json.RawMessage `json:"results"`
			}
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
				t.Fatalf("re-encoded body answers %d: %s", w.Code, w.Body.Bytes())
			}
			return resp.Results
		}
		want := results(New(), &req)
		if got := results(h, &req); !bytes.Equal(got, want) {
			t.Fatalf("the shared handler's results differ from a fresh handler's:\n%s\nwant:\n%s", got, want)
		}
		for i := range req.Items {
			req.Items[i].LegacyKernel = true
		}
		if got := results(h, &req); !bytes.Equal(got, want) {
			t.Fatalf("legacyKernel changed the results:\n%s\nwant:\n%s", got, want)
		}
	})
}
