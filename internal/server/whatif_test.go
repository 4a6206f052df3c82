package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/obs"
	"upsim/internal/whatif"
)

// usiWhatIfRequest is the printing-service what-if request body shared by
// the route tests.
func usiWhatIfRequest(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	modelXML, mappingXML := fetchArtifacts(t, ts)
	return map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"services": []map[string]any{{
			"service":    casestudy.PrintingServiceName,
			"mappingXml": mappingXML,
			"name":       "printing",
		}},
	}
}

func TestWhatIfFailureEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiWhatIfRequest(t, ts)
	req["failure"] = map[string]any{"components": []string{"p2"}}
	req["top"] = 10

	resp, body := postJSON(t, ts, "/api/v1/whatif", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Mode     string                     `json:"mode"`
		Services []whatif.ServiceStatus     `json:"services"`
		Impact   *whatif.ImpactReport       `json:"impact"`
		Critical []whatif.CriticalComponent `json:"critical"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != WhatIfModeFailure {
		t.Errorf("mode = %q", out.Mode)
	}
	if out.Impact == nil || len(out.Impact.Services) != 1 {
		t.Fatalf("impact = %+v", out.Impact)
	}
	d := out.Impact.Services[0]
	if d.Service != "printing" || !d.Affected || d.Failed != 0 || d.Baseline <= 0.98 {
		t.Fatalf("printing delta = %+v", d)
	}
	if d.GenKey == "" {
		t.Error("delta carries no generation key")
	}
	// The ranking rode along (top=10) and names the print server as a
	// single point of failure.
	if len(out.Critical) == 0 || len(out.Critical) > 10 {
		t.Fatalf("critical = %+v", out.Critical)
	}
	spof := map[string]bool{}
	for _, cc := range out.Critical {
		if cc.SinglePointOfFailure {
			spof[cc.Component] = true
		}
	}
	if !spof["printS"] {
		t.Errorf("printS not a single point of failure in %+v", out.Critical)
	}
	if len(out.Services) != 1 || out.Services[0].Stale {
		t.Fatalf("services = %+v", out.Services)
	}
}

// TestWhatIfApplyEndpoint drives a permanent removal end to end: the
// provider vanishes, the service is reported dead, and the generation's
// cache family — populated by the registration itself — is evicted.
func TestWhatIfApplyEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiWhatIfRequest(t, ts)
	req["mode"] = "apply"
	req["deltas"] = []map[string]any{{"op": "remove-node", "node": "p2"}}

	resp, body := postJSON(t, ts, "/api/v1/whatif", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif apply = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Apply *whatif.ApplyReport `json:"apply"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Apply == nil || out.Apply.PatchOps == 0 {
		t.Fatalf("apply report = %+v", out.Apply)
	}
	if len(out.Apply.AffectedGenerations) != 1 {
		t.Fatalf("affected generations = %v", out.Apply.AffectedGenerations)
	}
	// Registering through the shared cache stored the generation under its
	// content hash; the apply must have evicted at least that entry.
	if out.Apply.InvalidatedKeys == 0 {
		t.Fatal("apply evicted nothing despite a cached registration")
	}
	d := out.Apply.Services[0]
	if !d.Dead || d.Failed != 0 {
		t.Fatalf("printing after provider removal = %+v", d)
	}

	if _, err := json.Marshal(out.Apply); err != nil {
		t.Fatal(err)
	}
}

// TestWhatIfStale409 pins the freshness gate: against a current topology
// missing a component the generation uses, the route answers 409 with the
// concrete drift issues and self-invalidates the stale cache entries.
func TestWhatIfStale409(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiWhatIfRequest(t, ts)
	req["failure"] = map[string]any{"components": []string{"p2"}}

	// Identical current topology: fresh, and the validations ride along.
	req["currentModelXml"] = req["modelXml"]
	resp, body := postJSON(t, ts, "/api/v1/whatif", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh whatif = %d: %s", resp.StatusCode, body)
	}
	var fresh struct {
		Validations []whatifValidation `json:"validations"`
	}
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Validations) != 1 || !fresh.Validations[0].Fresh {
		t.Fatalf("validations = %+v", fresh.Validations)
	}

	// Drop the print server's edge switch from the current topology: every
	// printing path is broken, the generation is a lie, the request fails.
	cur := &bytes.Buffer{}
	for _, line := range bytes.Split([]byte(req["modelXml"].(string)), []byte("\n")) {
		if bytes.Contains(line, []byte(`"d4"`)) {
			continue
		}
		cur.Write(line)
		cur.WriteByte('\n')
	}
	req["currentModelXml"] = cur.String()
	resp, body = postJSON(t, ts, "/api/v1/whatif", req)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale whatif = %d, want 409: %s", resp.StatusCode, body)
	}
	var out struct {
		Error           string             `json:"error"`
		Validations     []whatifValidation `json:"validations"`
		InvalidatedKeys int                `json:"invalidatedKeys"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" || len(out.Validations) != 1 || out.Validations[0].Fresh {
		t.Fatalf("409 body = %+v", out)
	}
	found := false
	for _, is := range out.Validations[0].Issues {
		if is.Subject == "d4" {
			found = true
		}
	}
	if !found {
		t.Errorf("no issue for the removed d4: %+v", out.Validations[0].Issues)
	}
	if out.InvalidatedKeys == 0 {
		t.Error("stale generation kept its cache entries")
	}
}

func TestWhatIfBadRequests(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()

	base := usiWhatIfRequest(t, ts)

	noServices := map[string]any{"modelXml": base["modelXml"], "diagram": base["diagram"]}
	if resp, body := postJSON(t, ts, "/api/v1/whatif", noServices); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no services = %d: %s", resp.StatusCode, body)
	}

	badMode := usiWhatIfRequest(t, ts)
	badMode["mode"] = "demolish"
	if resp, body := postJSON(t, ts, "/api/v1/whatif", badMode); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode = %d: %s", resp.StatusCode, body)
	}

	noDeltas := usiWhatIfRequest(t, ts)
	noDeltas["mode"] = "apply"
	if resp, body := postJSON(t, ts, "/api/v1/whatif", noDeltas); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("apply without deltas = %d: %s", resp.StatusCode, body)
	}

	emptyFailure := usiWhatIfRequest(t, ts)
	if resp, body := postJSON(t, ts, "/api/v1/whatif", emptyFailure); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty failure = %d: %s", resp.StatusCode, body)
	}
}

// counterTotal sums every label set of a counter family in the process
// registry (0 when the family has recorded nothing yet).
func counterTotal(t *testing.T, name string) uint64 {
	t.Helper()
	vals, _ := obs.DefaultRegistry().Snapshot()[name].(map[string]any)
	var n uint64
	for _, v := range vals {
		c, ok := v.(uint64)
		if !ok {
			t.Fatalf("%s is not a counter family", name)
		}
		n += c
	}
	return n
}

// TestWhatIfReadsPooledModel pins that the what-if route reads its model
// through the generator pool: once a request has warmed the model, further
// failure and apply requests decode no XML, build no generator and compile
// no path kernel. The engine mutates its own copy of the topology, so an
// apply leaves the pooled model as it was: /api/v1/paths answers the same
// bytes before and after it.
func TestWhatIfReadsPooledModel(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiWhatIfRequest(t, ts)
	post := func(mode string, fields map[string]any) *whatif.ApplyReport {
		t.Helper()
		body := map[string]any{"mode": mode}
		for k, v := range req {
			body[k] = v
		}
		for k, v := range fields {
			body[k] = v
		}
		resp, out := postJSON(t, ts, "/api/v1/whatif", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("whatif %s = %d: %s", mode, resp.StatusCode, out)
		}
		var rep struct {
			Apply *whatif.ApplyReport `json:"apply"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Apply
	}
	paths := func() []byte {
		t.Helper()
		resp, out := postJSON(t, ts, "/api/v1/paths", map[string]any{
			"modelXml": req["modelXml"], "diagram": req["diagram"], "from": "t1", "to": "printS",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("paths = %d: %s", resp.StatusCode, out)
		}
		return out
	}

	post(WhatIfModeFailure, map[string]any{"failure": map[string]any{"components": []string{"p2"}}})
	before := paths()
	counters := []string{"upsim_uml_decode_total", "upsim_genpool_misses_total", "upsim_pathdisc_compile_total"}
	want := make([]uint64, len(counters))
	for i, name := range counters {
		want[i] = counterTotal(t, name)
	}

	post(WhatIfModeFailure, map[string]any{"failure": map[string]any{"links": []string{"c1--d4"}}})
	rep := post(WhatIfModeApply, map[string]any{"deltas": []map[string]any{{"op": "remove-node", "node": "p2"}}})
	if rep == nil || rep.PatchOps != 1 || rep.PatchedServices != 1 {
		t.Fatalf("apply report = %+v, want one graph mutation patching one service", rep)
	}
	for i, name := range counters {
		if got := counterTotal(t, name); got != want[i] {
			t.Errorf("%s moved %d -> %d over two what-if requests on a warm model", name, want[i], got)
		}
	}
	if after := paths(); !bytes.Equal(before, after) {
		t.Errorf("paths after an apply removing p2 differ:\nbefore: %s\nafter:  %s", before, after)
	}
}

// FuzzWhatIfRoute drives POST /api/v1/whatif end to end with arbitrary
// bodies, seeded with the route-contract what-if bodies. Whatever the body,
// the route answers one of its documented statuses — never a 500 or a
// panic — and every refusal is a JSON object with a non-empty "error".
func FuzzWhatIfRoute(f *testing.F) {
	for _, c := range contractCases(f) {
		if c.method == http.MethodPost && c.target == "/api/v1/whatif" {
			f.Add([]byte(c.body))
		}
	}
	h := New()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/whatif", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			return
		case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		var refusal struct {
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &refusal); err != nil || refusal.Error == nil || *refusal.Error == "" {
			t.Fatalf("status %d body is not {\"error\": …} with a message (%v): %s", w.Code, err, w.Body.Bytes())
		}
	})
}
