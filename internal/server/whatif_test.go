package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"upsim/internal/casestudy"
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
