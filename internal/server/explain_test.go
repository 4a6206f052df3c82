package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/depend"
	"upsim/internal/explain"
)

// usiExplainRequest is the USI printing-service request body shared by the
// explain tests.
func usiExplainRequest(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	modelXML, mappingXML := fetchArtifacts(t, ts)
	return map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
		"name":       "usi",
	}
}

// TestExplainEndpoint is the API acceptance round-trip: the report carries
// per-path statistics, a discovery tree per atomic service and the component
// rankings, and the legacy kernel returns identical numbers.
func TestExplainEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiExplainRequest(t, ts)

	resp, body := postJSON(t, ts, "/api/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d: %s", resp.StatusCode, body)
	}
	var out explain.Report
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kernel != "compiled" || out.Name != "usi" {
		t.Errorf("kernel = %q, name = %q", out.Kernel, out.Name)
	}
	if len(out.Services) != len(casestudy.PrintingAtomicServices) || out.Stats.Count == 0 {
		t.Fatalf("services = %d, paths = %d", len(out.Services), out.Stats.Count)
	}
	for _, svc := range out.Services {
		if len(svc.Paths) == 0 || svc.Tree == nil || svc.Stats.Count != len(svc.Paths) {
			t.Errorf("service %q provenance incomplete: %+v", svc.AtomicService, svc)
		}
		if svc.Tree != nil && svc.Tree.Name != svc.Requester {
			t.Errorf("service %q tree rooted at %q, want %q", svc.AtomicService, svc.Tree.Name, svc.Requester)
		}
	}
	attr := out.Attribution
	if attr == nil || attr.Availability <= 0.98 || attr.Availability >= 1 {
		t.Fatalf("attribution = %+v", attr)
	}
	if len(attr.CutSets) == 0 || len(attr.Components) == 0 || len(attr.Classes) == 0 {
		t.Fatalf("attribution incomplete: %+v", attr)
	}

	// The legacy kernel reports the identical provenance and attribution.
	req["legacyKernel"] = true
	resp, lbody := postJSON(t, ts, "/api/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy explain = %d: %s", resp.StatusCode, lbody)
	}
	want := bytes.Replace(body, []byte(`"kernel":"compiled"`), []byte(`"kernel":"legacy"`), 1)
	if !bytes.Equal(lbody, want) {
		t.Error("legacy explain response differs from compiled beyond the kernel tag")
	}
}

// TestExplainValidateEndpoint drives mode "validate": the unchanged model is
// fresh; a current topology missing a used component is stale with a
// missing-node issue.
func TestExplainValidateEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiExplainRequest(t, ts)
	req["mode"] = "validate"

	resp, body := postJSON(t, ts, "/api/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("validate = %d: %s", resp.StatusCode, body)
	}
	var out explain.Validation
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Fresh || out.NodesChecked == 0 || out.LinksChecked == 0 {
		t.Fatalf("self-validation not fresh: %+v", out)
	}

	// Drop the print server's edge switch from the current topology. The
	// casestudy model XML declares each instance once; removing the d4
	// instance line leaves a diagram the decoder still accepts but where
	// every printing path is broken.
	cur := &bytes.Buffer{}
	for _, line := range bytes.Split([]byte(req["modelXml"].(string)), []byte("\n")) {
		if bytes.Contains(line, []byte(`"d4"`)) {
			continue
		}
		cur.Write(line)
		cur.WriteByte('\n')
	}
	req["currentModelXml"] = cur.String()
	resp, body = postJSON(t, ts, "/api/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("validate (mutated) = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fresh {
		t.Fatalf("mutated topology validated fresh: %+v", out)
	}
	found := false
	for _, is := range out.Issues {
		if is.Kind == explain.IssueMissingNode && is.Subject == "d4" {
			found = true
		}
	}
	if !found {
		t.Errorf("no missing-node issue for d4: %+v", out.Issues)
	}
}

// TestReservedLinkName422 renames the case study's edge switch d4 to
// "c1--d4#0", the component ID form of link edge 0: every analysis route
// answers 422 naming the device instead of a 200 computed for the wrong
// component.
func TestReservedLinkName422(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiExplainRequest(t, ts)
	req["modelXml"] = strings.ReplaceAll(req["modelXml"].(string), `"d4"`, `"c1--d4#0"`)
	want := `depend: instance name "c1--d4#0" has the reserved link component form a--b#<edge>`
	for _, route := range []string{"/api/v1/availability", "/api/v1/qos", "/api/v1/explain"} {
		resp, body := postJSON(t, ts, route, req)
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v: %s", route, err, body)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || out.Error != want {
			t.Errorf("%s = %d %q, want 422 %q", route, resp.StatusCode, out.Error, want)
		}
	}
}

// TestExplainBudget422 pins the structured budget-exhaustion error: a tiny
// cut-set limit yields a 422 naming the budget kind, the atomic service and
// the limit.
func TestExplainBudget422(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiExplainRequest(t, ts)
	req["cutLimit"] = 1

	resp, body := postJSON(t, ts, "/api/v1/explain", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("explain with cutLimit=1 = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Error         string `json:"error"`
		Kind          string `json:"kind"`
		AtomicService string `json:"atomicService"`
		Limit         int    `json:"limit"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != string(depend.BudgetTransversal) || out.AtomicService == "" || out.Limit != 1 {
		t.Fatalf("budget 422 = %+v", out)
	}
	if out.Error == "" {
		t.Error("budget 422 has no error message")
	}
}

// TestWarmHitSkipsEncoding asserts the encoded-bytes memoisation: a repeated
// availability (and qos) request serves the memoised bytes — the per-route
// encode counter does not move on the warm hit and the body is byte-identical.
func TestWarmHitSkipsEncoding(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiExplainRequest(t, ts)
	req["mcSamples"] = 20000

	routes := []struct {
		path  string
		route string
	}{
		{"/api/v1/availability", "/api/v1/availability"},
		{"/api/v1/qos", "/api/v1/qos"},
	}
	for _, rt := range routes {
		delete(req, "mcSamples")
		if rt.path == "/api/v1/availability" {
			req["mcSamples"] = 20000
		}
		resp, cold := postJSON(t, ts, rt.path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", rt.path, resp.StatusCode, cold)
		}
		encodes := mResponseEncodes.With(rt.route).Value()
		if encodes == 0 {
			t.Fatalf("%s cold request did not count an encode", rt.path)
		}
		resp, warm := postJSON(t, ts, rt.path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s warm = %d: %s", rt.path, resp.StatusCode, warm)
		}
		if got := mResponseEncodes.With(rt.route).Value(); got != encodes {
			t.Errorf("%s warm hit re-encoded: counter %d -> %d", rt.path, encodes, got)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s warm body differs from cold:\ncold: %s\nwarm: %s", rt.path, cold, warm)
		}
	}
}

// TestExplainCacheReplay asserts the explain report rides the same memoised
// response-bytes machinery: a repeated report request is served from the
// cache (the per-route encode counter does not move on the warm hit, the
// bytes are identical), while changing any report knob misses and re-encodes.
func TestExplainCacheReplay(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	req := usiExplainRequest(t, ts)

	const route = "/api/v1/explain"
	resp, cold := postJSON(t, ts, route, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d: %s", resp.StatusCode, cold)
	}
	encodes := mResponseEncodes.With(route).Value()
	if encodes == 0 {
		t.Fatal("cold explain did not count an encode")
	}

	resp, warm := postJSON(t, ts, route, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm explain = %d: %s", resp.StatusCode, warm)
	}
	if got := mResponseEncodes.With(route).Value(); got != encodes {
		t.Errorf("warm explain re-encoded: counter %d -> %d", encodes, got)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm explain body differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}

	// A different report knob is a different cache key: it must re-analyse
	// and re-encode rather than replay the full report's bytes.
	req["top"] = 1
	resp, truncated := postJSON(t, ts, route, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top=1 explain = %d: %s", resp.StatusCode, truncated)
	}
	if got := mResponseEncodes.With(route).Value(); got != encodes+1 {
		t.Errorf("top=1 explain encode counter = %d, want %d", got, encodes+1)
	}
	if bytes.Equal(cold, truncated) {
		t.Error("top=1 explain replayed the untruncated report")
	}
}
