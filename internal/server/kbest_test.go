package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/core"
)

// postPaths serves one POST /api/v1/paths request against h.
func postPaths(t *testing.T, h http.Handler, req map[string]any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/api/v1/paths", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestPathsRanked pins the ranked-discovery surface of POST /api/v1/paths:
// k and cost select the budgeted k-best kernel, the response carries the
// per-path cost records in nondecreasing cost order, and the stereotype
// metrics (bottleneck throughput) are joined on.
func TestPathsRanked(t *testing.T) {
	modelXML, _ := warmFixture(t)
	h := New()
	w := postPaths(t, h, map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"from":     "t1",
		"to":       "printS",
		"k":        3,
		"cost":     "throughput",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp pathsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CostMetric != "throughput" {
		t.Errorf("costMetric = %q, want throughput", resp.CostMetric)
	}
	if len(resp.Ranked) == 0 || len(resp.Ranked) > 3 {
		t.Fatalf("ranked paths = %d, want 1..3", len(resp.Ranked))
	}
	if len(resp.Paths) != len(resp.Ranked) {
		t.Fatalf("paths (%d) and ranked (%d) disagree", len(resp.Paths), len(resp.Ranked))
	}
	for i, rp := range resp.Ranked {
		if rp.Path != resp.Paths[i] {
			t.Errorf("ranked[%d].path = %q, paths[%d] = %q", i, rp.Path, i, resp.Paths[i])
		}
		if rp.Hops <= 0 || rp.Cost <= 0 {
			t.Errorf("ranked[%d] = %+v, want positive hops and cost", i, rp)
		}
		if i > 0 && rp.Cost < resp.Ranked[i-1].Cost {
			t.Errorf("ranked[%d].cost = %v < ranked[%d].cost = %v, want nondecreasing", i, rp.Cost, i-1, resp.Ranked[i-1].Cost)
		}
		// Figure 8 declares throughput on every communication link, so the
		// bottleneck is always resolvable.
		if rp.BottleneckMbps <= 0 {
			t.Errorf("ranked[%d].bottleneckMbps = %v, want > 0", i, rp.BottleneckMbps)
		}
	}

	// The default metric ranks by hop count: the top path is a shortest one.
	w = postPaths(t, h, map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"from":     "t1",
		"to":       "printS",
		"k":        1,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("hops status = %d: %s", w.Code, w.Body.String())
	}
	var hops pathsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hops); err != nil {
		t.Fatal(err)
	}
	if hops.CostMetric != "hops" || len(hops.Ranked) != 1 {
		t.Fatalf("hops response = %+v, want metric hops and one path", hops)
	}
	if hops.Ranked[0].Cost != float64(hops.Ranked[0].Hops) {
		t.Errorf("hop-metric cost = %v, hops = %d; want equal", hops.Ranked[0].Cost, hops.Ranked[0].Hops)
	}

	// An unknown metric is a 400, not a silent default.
	w = postPaths(t, h, map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"from":     "t1",
		"to":       "printS",
		"k":        1,
		"cost":     "latency",
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown metric status = %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestPathsGetCaseStudy pins the GET form of /api/v1/paths: the stateless
// server answers against the built-in case-study model via query params.
func TestPathsGetCaseStudy(t *testing.T) {
	h := New()
	get := func(query string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, "/api/v1/paths?"+query, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	w := get("from=t1&to=printS&k=2&cost=throughput")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var ranked pathsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked.Ranked) == 0 || ranked.CostMetric != "throughput" {
		t.Fatalf("ranked GET response = %+v, want ranked throughput paths", ranked)
	}

	// Without k the GET form enumerates, like the POST form.
	w = get("from=t1&to=printS")
	if w.Code != http.StatusOK {
		t.Fatalf("enumeration status = %d: %s", w.Code, w.Body.String())
	}
	var full pathsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Ranked) != 0 || full.PathCount == 0 {
		t.Fatalf("enumeration response = %+v, want plain paths", full)
	}
	if full.PathCount < len(ranked.Ranked) {
		t.Errorf("enumeration found %d paths, ranked returned %d", full.PathCount, len(ranked.Ranked))
	}

	for query, want := range map[string]int{
		"to=printS":                      http.StatusBadRequest, // missing from
		"from=t1&to=printS&k=oops":       http.StatusBadRequest,
		"from=t1&to=printS&maxDepth=x":   http.StatusBadRequest,
		"from=nosuch&to=printS":          http.StatusBadRequest,
		"from=t1&to=printS&cost=latency": http.StatusBadRequest,
	} {
		if w := get(query); w.Code != want {
			t.Errorf("GET ?%s = %d, want %d: %s", query, w.Code, want, w.Body.String())
		}
	}
}

// TestPathsKBestBudget422 pins the ranked work-envelope error: exceeding
// the K·V·E budget is a structured 422 with kind "kbest" carrying the
// estimated need, before any search runs.
func TestPathsKBestBudget422(t *testing.T) {
	old := pathsWorkLimit
	pathsWorkLimit = 1
	defer func() { pathsWorkLimit = old }()

	modelXML, _ := warmFixture(t)
	w := postPaths(t, New(), map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"from":     "t1",
		"to":       "printS",
		"k":        5,
	})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", w.Code, w.Body.String())
	}
	var resp budgetErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "kbest" || resp.Limit != 1 || resp.Need <= 1 {
		t.Fatalf("budget shape = %+v, want kind kbest, limit 1, need > 1", resp)
	}
	if resp.AtomicService != "t1→printS" {
		t.Fatalf("atomicService = %q", resp.AtomicService)
	}
}

// TestBatchPathsOp pins the "paths" batch op: discovery items (full and
// ranked) run beside the generation ops, no service or mapping required.
func TestBatchPathsOp(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, _ := fetchArtifacts(t, ts)

	item := func(extra map[string]any) map[string]any {
		it := map[string]any{
			"op":       "paths",
			"modelXml": modelXML,
			"diagram":  casestudy.DiagramName,
			"from":     "t1",
			"to":       "printS",
		}
		for k, v := range extra {
			it[k] = v
		}
		return it
	}
	resp, body := postJSON(t, ts, "/api/v1/batch", map[string]any{
		"items": []map[string]any{
			item(nil),
			item(map[string]any{"k": 2, "cost": "throughput"}),
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 0 || len(out.Results) != 2 {
		t.Fatalf("batch = %s", body)
	}
	for i, r := range out.Results {
		if r.Op != OpPaths || r.Result == nil {
			t.Fatalf("result[%d] = %+v, want op paths with payload", i, r)
		}
	}
	// The ranked item's payload carries the per-path cost records.
	rb, err := json.Marshal(out.Results[1].Result)
	if err != nil {
		t.Fatal(err)
	}
	var ranked pathsResponse
	if err := json.Unmarshal(rb, &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked.Ranked) == 0 || ranked.CostMetric != "throughput" {
		t.Fatalf("ranked item payload = %s", rb)
	}
}

// TestBatchItemBudgetShape pins that the structured budget detail survives
// batch encoding: a per-item budget overflow carries kind, need and limit
// next to the error string, for both the kbest work envelope and the
// enumeration hard limit.
func TestBatchItemBudgetShape(t *testing.T) {
	oldWork, oldHard := pathsWorkLimit, pathsHardLimit
	pathsWorkLimit, pathsHardLimit = 1, 1
	defer func() { pathsWorkLimit, pathsHardLimit = oldWork, oldHard }()

	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, _ := fetchArtifacts(t, ts)

	resp, body := postJSON(t, ts, "/api/v1/batch", map[string]any{
		"items": []map[string]any{
			{"op": "paths", "modelXml": modelXML, "diagram": casestudy.DiagramName,
				"from": "t1", "to": "printS", "k": 5},
			{"op": "paths", "modelXml": modelXML, "diagram": casestudy.DiagramName,
				"from": "t1", "to": "printS"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 2 || len(out.Results) != 2 {
		t.Fatalf("batch = %s", body)
	}
	wantKinds := []string{"kbest", "paths"}
	for i, r := range out.Results {
		if r.Error == "" {
			t.Fatalf("result[%d] has no error: %+v", i, r)
		}
		if r.Budget == nil {
			t.Fatalf("result[%d] lacks the structured budget detail: %s", i, body)
		}
		if r.Budget.Kind != wantKinds[i] {
			t.Errorf("result[%d].budget.kind = %q, want %q", i, r.Budget.Kind, wantKinds[i])
		}
		if r.Budget.Limit != 1 || r.Budget.Need <= 1 {
			t.Errorf("result[%d].budget = %+v, want limit 1 and need > 1", i, r.Budget)
		}
		if r.Budget.AtomicService != "t1→printS" {
			t.Errorf("result[%d].budget.atomicService = %q", i, r.Budget.AtomicService)
		}
	}
}

// TestPrewarm pins the boot-time pool prewarm: with Config.Prewarm a ready
// case-study generator is resident in the pool before the first request,
// and the first GET /api/v1/paths reuses it instead of building a fresh
// one (the resident generator is the same before and after the request).
func TestPrewarm(t *testing.T) {
	xml, err := caseStudyXML()
	if err != nil {
		t.Fatal(err)
	}

	cold := newAPI(Config{})
	if n := cold.generators.IdleLen(xml, casestudy.DiagramName); n != 0 {
		t.Fatalf("cold pool resident = %d, want 0", n)
	}

	a := newAPI(Config{Prewarm: true})
	if n := a.generators.IdleLen(xml, casestudy.DiagramName); n != 1 {
		t.Fatalf("prewarmed pool resident = %d, want 1", n)
	}
	resident := func() *core.Generator {
		g, err := a.generators.Acquire(context.Background(), xml, casestudy.DiagramName)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	before := resident()
	h := a.routes()
	r := httptest.NewRequest(http.MethodGet, "/api/v1/paths?from=t1&to=printS&k=2", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if resident() != before {
		t.Fatal("the first request replaced the prewarmed generator")
	}
}

// TestWarmLaneDedicatedCache pins the warm lane's dedicated LRU: warm
// entries are bounded by Config.WarmSize and never compete with generation
// results for cache slots.
func TestWarmLaneDedicatedCache(t *testing.T) {
	modelXML, mappingXML := warmFixture(t)
	a := newAPI(Config{WarmSize: 2})
	h := a.routes()

	// Three distinct qos bodies: each stores one warm entry; the third
	// evicts the first from the bounded warm lane.
	for _, pad := range []string{"", " ", "  "} {
		body := warmBody(t, "/api/v1/qos", modelXML+pad, mappingXML)
		r := httptest.NewRequest(http.MethodPost, "/api/v1/qos", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	}
	if n := a.warm.Len(); n != 2 {
		t.Errorf("warm entries = %d, want 2 (bounded by WarmSize)", n)
	}
	if ev := a.warm.Stats().Evictions; ev != 1 {
		t.Errorf("warm evictions = %d, want 1", ev)
	}
	// The generation cache kept every pipeline and analysis entry: warm
	// churn costs it nothing. (The three padded bodies decode to the same
	// model, so semantically there is one generation plus one qos entry —
	// the warm lane's byte-level keys are what distinguish them.)
	if ev := a.cache.Stats().Evictions; ev != 0 {
		t.Errorf("generation cache evictions = %d, want 0", ev)
	}
	if n := a.cache.Len(); n != 2 {
		t.Errorf("generation cache entries = %d, want 2 (generation + qos analysis)", n)
	}
}
