package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/uml"
)

// fetchArtifacts grabs the built-in model and mapping through the API so
// the tests exercise the full loop.
func fetchArtifacts(t *testing.T, ts *httptest.Server) (modelXML, mappingXML string) {
	t.Helper()
	for _, ep := range []struct {
		path string
		dst  *string
	}{
		{"/api/v1/casestudy/model", &modelXML},
		{"/api/v1/casestudy/mapping", &mappingXML},
	} {
		resp, err := http.Get(ts.URL + ep.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", ep.path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/xml" {
			t.Errorf("GET %s content type = %q", ep.path, ct)
		}
		*ep.dst = string(body)
	}
	return modelXML, mappingXML
}

func postJSON(t *testing.T, ts *httptest.Server, path string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealth(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestCaseStudyArtifactsParse(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)
	m, err := uml.Decode(strings.NewReader(modelXML))
	if err != nil {
		t.Fatalf("served model does not parse: %v", err)
	}
	if _, ok := m.Diagram(casestudy.DiagramName); !ok {
		t.Error("served model lacks the infrastructure diagram")
	}
	if !strings.Contains(mappingXML, "atomicservice") {
		t.Errorf("mapping XML = %q", mappingXML)
	}
}

func TestPathsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, _ := fetchArtifacts(t, ts)
	resp, body := postJSON(t, ts, "/api/v1/paths", map[string]any{
		"modelXml": modelXML,
		"diagram":  casestudy.DiagramName,
		"from":     "t1",
		"to":       "printS",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("paths = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Paths      []string `json:"paths"`
		EdgeVisits int      `json:"edgeVisits"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 2 {
		t.Errorf("paths = %v", out.Paths)
	}
	found := false
	for _, p := range out.Paths {
		if p == "t1—e1—d1—c1—d4—printS" {
			found = true
		}
	}
	if !found {
		t.Errorf("published path missing from %v", out.Paths)
	}
	if out.EdgeVisits == 0 {
		t.Error("edge visits missing")
	}
}

func TestGenerateEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)
	resp, body := postJSON(t, ts, "/api/v1/generate", map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
		"name":       "fig11",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Name  string   `json:"name"`
		Nodes []string `json:"nodes"`
		Links []struct {
			A, B        string
			Association string
		} `json:"links"`
		Paths      map[string][]string `json:"pathsByService"`
		TotalPaths int                 `json:"totalPaths"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "fig11" {
		t.Errorf("name = %q", out.Name)
	}
	if len(out.Nodes) != len(casestudy.Figure11Nodes) {
		t.Fatalf("nodes = %v", out.Nodes)
	}
	for i, want := range casestudy.Figure11Nodes {
		if out.Nodes[i] != want {
			t.Errorf("node[%d] = %s, want %s", i, out.Nodes[i], want)
		}
	}
	if len(out.Links) == 0 || out.TotalPaths == 0 {
		t.Error("links/paths missing")
	}
	if len(out.Paths["Request printing"]) != 2 {
		t.Errorf("Request printing paths = %v", out.Paths["Request printing"])
	}
}

func TestAvailabilityEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)
	resp, body := postJSON(t, ts, "/api/v1/availability", map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
		"mcSamples":  20000,
		"seed":       7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("availability = %d: %s", resp.StatusCode, body)
	}
	var out availabilityResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Exact <= 0.98 || out.Exact >= 1 {
		t.Errorf("exact = %v", out.Exact)
	}
	if out.RBDApprox < out.Exact {
		t.Errorf("RBD %v below exact %v", out.RBDApprox, out.Exact)
	}
	if out.Components == 0 || out.DowntimePerYearHours <= 0 {
		t.Errorf("report incomplete: %+v", out)
	}
}

// FuzzAvailabilityRoute drives POST /api/v1/availability end to end with
// arbitrary bodies, seeded with the route-contract availability bodies.
// Whatever the body, the route answers 200, 400 or 422 — never a 500 or a
// panic — every refusal is a JSON object with a non-empty "error", and
// replaying an accepted body answers the same bytes, so the warm lane
// matches the cold reply.
func FuzzAvailabilityRoute(f *testing.F) {
	for _, c := range contractCases(f) {
		if c.method == http.MethodPost && c.target == "/api/v1/availability" && len(c.body) <= MaxRequestBytes {
			f.Add([]byte(c.body))
		}
	}
	h := New()
	post := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/availability", bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Bound each input's work: the Monte Carlo sample count, which
		// defaults to 100000 when unset.
		var req availabilityRequest
		if json.Unmarshal(body, &req) == nil && (req.MCSamples <= 0 || req.MCSamples > 20000) {
			return
		}
		w := post(body)
		switch w.Code {
		case http.StatusOK:
			if again := post(body); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
				t.Fatalf("replay answers %d:\n%s\nfirst reply:\n%s", again.Code, again.Body.Bytes(), w.Body.Bytes())
			}
			return
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
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

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	cases := []struct {
		name string
		path string
		req  map[string]any
		want int
	}{
		{"malformed json", "/api/v1/paths", nil, http.StatusBadRequest},
		{"missing model", "/api/v1/paths", map[string]any{"diagram": "x", "from": "a", "to": "b"}, http.StatusBadRequest},
		{"bad model xml", "/api/v1/paths", map[string]any{"modelXml": "<broken", "diagram": "x", "from": "a", "to": "b"}, http.StatusBadRequest},
		{"unknown diagram", "/api/v1/paths", map[string]any{"modelXml": modelXML, "diagram": "ghost", "from": "a", "to": "b"}, http.StatusBadRequest},
		{"unknown endpoint node", "/api/v1/paths", map[string]any{"modelXml": modelXML, "diagram": casestudy.DiagramName, "from": "ghost", "to": "printS"}, http.StatusBadRequest},
		{"unknown service", "/api/v1/generate", map[string]any{"modelXml": modelXML, "diagram": casestudy.DiagramName, "service": "ghost", "mappingXml": mappingXML}, http.StatusBadRequest},
		{"bad mapping xml", "/api/v1/generate", map[string]any{"modelXml": modelXML, "diagram": casestudy.DiagramName, "service": casestudy.PrintingServiceName, "mappingXml": "<broken"}, http.StatusBadRequest},
		{"unknown field", "/api/v1/paths", map[string]any{"modelXml": modelXML, "diagram": casestudy.DiagramName, "from": "t1", "to": "printS", "bogus": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if c.req == nil {
				r, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader("{not json"))
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(r.Body)
				r.Body.Close()
				resp = r
			} else {
				resp, body = postJSON(t, ts, c.path, c.req)
			}
			if resp.StatusCode != c.want {
				t.Errorf("status = %d, want %d: %s", resp.StatusCode, c.want, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body malformed: %s", body)
			}
		})
	}
}

func TestMethodRouting(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	// GET on a POST-only route 405s.
	resp, err := http.Get(ts.URL + "/api/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET generate = %d, want 405", resp.StatusCode)
	}
	// Unknown route 404s.
	resp, err = http.Get(ts.URL + "/api/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", resp.StatusCode)
	}
}

func TestQoSEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)
	resp, body := postJSON(t, ts, "/api/v1/qos", map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
		"maxHops":    5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("qos = %d: %s", resp.StatusCode, body)
	}
	var out qosResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ThroughputMbps != 100 {
		t.Errorf("throughput = %v, want 100", out.ThroughputMbps)
	}
	if out.MaxHops != 5 || out.PathsWithinBudget != 5 || out.PathsTotal != 10 {
		t.Errorf("responsiveness paths = %+v", out)
	}
	if out.Responsiveness <= 0 || out.Responsiveness > out.Availability {
		t.Errorf("responsiveness %v vs availability %v", out.Responsiveness, out.Availability)
	}
	// Default budget applies when absent.
	resp, body = postJSON(t, ts, "/api/v1/qos", map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("qos default = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.MaxHops != 8 {
		t.Errorf("default budget = %d, want 8", out.MaxHops)
	}
}

func TestLintEndpoint(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, mappingXML := fetchArtifacts(t, ts)

	// Pristine case study: clean report.
	resp, body := postJSON(t, ts, "/api/v1/lint", map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": mappingXML,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Diagnostics []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
			Element  string `json:"element"`
		} `json:"diagnostics"`
		Errors   int `json:"errors"`
		RulesRun int `json:"rulesRun"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 0 || len(out.Diagnostics) != 0 {
		t.Errorf("case study not clean: %s", body)
	}
	if out.RulesRun < 10 {
		t.Errorf("rulesRun = %d, want >= 10", out.RulesRun)
	}

	// A mapping with a dangling requester comes back 200 with the findings
	// in the body — lint reports defects, it does not reject the request.
	broken := strings.Replace(mappingXML, `"t1"`, `"ghost"`, 1)
	if broken == mappingXML {
		t.Fatalf("fixture mapping unexpectedly lacks t1: %s", mappingXML)
	}
	resp, body = postJSON(t, ts, "/api/v1/lint", map[string]any{
		"modelXml":   modelXML,
		"diagram":    casestudy.DiagramName,
		"service":    casestudy.PrintingServiceName,
		"mappingXml": broken,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint broken = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors == 0 {
		t.Fatalf("dangling ref not reported: %s", body)
	}
	found := false
	for _, d := range out.Diagnostics {
		if d.Rule == "mapping-dangling-ref" && d.Severity == "error" {
			found = true
		}
	}
	if !found {
		t.Errorf("mapping-dangling-ref missing: %s", body)
	}
}

func TestLintEndpointBadRequests(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	modelXML, _ := fetchArtifacts(t, ts)
	cases := []struct {
		name string
		req  map[string]any
	}{
		{"missing model", map[string]any{"diagram": "x"}},
		{"bad model xml", map[string]any{"modelXml": "<broken"}},
		{"unknown diagram", map[string]any{"modelXml": modelXML, "diagram": "ghost"}},
		{"unknown service", map[string]any{"modelXml": modelXML, "service": "ghost"}},
		{"bad mapping xml", map[string]any{"modelXml": modelXML, "mappingXml": "<broken"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, "/api/v1/lint", c.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d: %s", resp.StatusCode, body)
			}
		})
	}
}
