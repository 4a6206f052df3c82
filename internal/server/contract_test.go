package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/mapping"
	"upsim/internal/modelgen"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

var updateGolden = flag.Bool("update", false, "rewrite the route-contract golden file")

// contractGolden pins the HTTP contract of every route: status code,
// Content-Type and body bytes for the success case and each error class. A
// change to the request plumbing must leave it byte-identical. Regenerate
// with
//
//	go test ./internal/server -run TestRouteContract -update
const contractGolden = "testdata/routes.golden"

// contractBodyLimit is the largest body recorded verbatim; longer bodies
// (models, full reports) are pinned by length and SHA-256.
const contractBodyLimit = 1024

type contractCase struct {
	name, method, target, body string
}

// obj is a JSON object under construction.
type obj = map[string]any

// with returns a copy of base with fields set; a nil value deletes the
// field.
func with(base, fields obj) obj {
	out := obj{}
	for k, v := range base {
		out[k] = v
	}
	for k, v := range fields {
		if v == nil {
			delete(out, k)
		} else {
			out[k] = v
		}
	}
	return out
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// formula1BreakdownRequest is an availability request over a three-node
// mesh whose components all have MTTR > MTBF: generation succeeds, the
// Formula 1 analysis fails. That is the availability route's 422; its
// analysis runs no budgeted expansion, so it has no budget 422.
func formula1BreakdownRequest(t testing.TB) obj {
	t.Helper()
	g, err := topology.Mesh(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := modelgen.Build("fragile", g, modelgen.Params{Default: modelgen.ClassParams{MTBF: 1, MTTR: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := service.NewSequential(m, "rpc", "request", "reply"); err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	for _, p := range []mapping.Pair{
		{AtomicService: "request", Requester: "n0", Provider: "n1"},
		{AtomicService: "reply", Requester: "n1", Provider: "n0"},
	} {
		if err := mp.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var mb, pb strings.Builder
	if err := uml.Encode(&mb, m); err != nil {
		t.Fatal(err)
	}
	if err := mp.Encode(&pb); err != nil {
		t.Fatal(err)
	}
	return obj{
		"modelXml": mb.String(), "diagram": "infrastructure", "service": "rpc",
		"mappingXml": pb.String(), "formula1": true, "mcSamples": 1000,
	}
}

// contractCases lists every route with its success case and each error
// class it can answer.
func contractCases(t testing.TB) []contractCase {
	t.Helper()
	modelXML, mappingXML := warmFixture(t)
	var stale strings.Builder // the case-study model without edge switch d4
	for _, line := range strings.SplitAfter(modelXML, "\n") {
		if !strings.Contains(line, `"d4"`) {
			stale.WriteString(line)
		}
	}

	model := obj{"modelXml": modelXML, "diagram": casestudy.DiagramName}
	gen := with(model, obj{"service": casestudy.PrintingServiceName, "mappingXml": mappingXML})
	paths := with(model, obj{"from": "t1", "to": "printS"})
	kbest := with(paths, obj{"k": 1000000})
	whatif := with(model, obj{
		"services": []obj{{"service": casestudy.PrintingServiceName, "mappingXml": mappingXML, "name": "printing"}},
		"failure":  obj{"components": []string{"p2"}},
		"top":      3,
	})
	batch := func(items ...obj) obj { return obj{"items": items, "workers": 1} }

	var cases []contractCase
	get := func(name, target string) {
		cases = append(cases, contractCase{name, http.MethodGet, target, ""})
	}
	post := func(name, route string, body any) {
		s, ok := body.(string)
		if !ok {
			s = mustJSON(t, body)
		}
		cases = append(cases, contractCase{name, http.MethodPost, route, s})
	}

	get("healthz", "/healthz")
	get("casestudy model", "/api/v1/casestudy/model")
	get("casestudy mapping", "/api/v1/casestudy/mapping")
	get("ranked", "/api/v1/paths?from=t1&to=printS&k=2&cost=throughput")
	get("enumeration", "/api/v1/paths?from=t1&to=printS")
	get("missing from", "/api/v1/paths?to=printS")
	get("bad k", "/api/v1/paths?from=t1&to=printS&k=oops")
	get("unknown node", "/api/v1/paths?from=ghost&to=printS")
	get("budget 422", "/api/v1/paths?from=t1&to=printS&k=1000000")

	for _, b := range []struct {
		route string
		body  obj
	}{
		{"/api/v1/paths", paths},
		{"/api/v1/generate", with(gen, obj{"name": "fig11"})},
		{"/api/v1/availability", with(gen, obj{"mcSamples": 1000, "seed": 7})},
		{"/api/v1/qos", gen},
		{"/api/v1/explain", gen},
		{"/api/v1/lint", gen},
		{"/api/v1/batch", batch(
			with(gen, obj{"op": OpGenerate}),
			with(gen, obj{"op": OpAvailability, "mcSamples": 1000}),
			with(gen, obj{"op": OpQoS}),
			with(paths, obj{"op": OpPaths, "k": 2, "cost": "throughput"}),
		)},
		{"/api/v1/whatif", whatif},
	} {
		r, valid := b.route, mustJSON(t, b.body)
		post("success", r, valid)
		post("malformed json", r, "{not json")
		post("unknown field", r, with(b.body, obj{"bogus": 1}))
		post("trailing data", r, valid+" trailing")
		post("trailing value", r, valid+"{}")
		post("trailing whitespace", r, valid+"\n\t \n")
		switch r {
		case "/api/v1/batch":
			post("missing modelXml", r, batch(with(gen, obj{"modelXml": nil})))
			post("unknown activity", r, batch(with(gen, obj{"service": "ghost"})))
		case "/api/v1/whatif":
			post("missing modelXml", r, with(b.body, obj{"modelXml": nil}))
			post("unknown activity", r, with(b.body, obj{"services": []obj{{"service": "ghost", "mappingXml": mappingXML}}}))
		case "/api/v1/paths":
			post("missing modelXml", r, with(b.body, obj{"modelXml": nil}))
			post("unknown node", r, with(b.body, obj{"from": "ghost"}))
		default:
			post("missing modelXml", r, with(b.body, obj{"modelXml": nil}))
			post("unknown activity", r, with(b.body, obj{"service": "ghost"}))
		}
	}

	post("budget 422", "/api/v1/paths", kbest)
	post("unknown cost metric", "/api/v1/paths", with(paths, obj{"k": 1, "cost": "latency"}))
	post("missing diagram", "/api/v1/qos", with(gen, obj{"diagram": nil}))
	post("analysis 422", "/api/v1/availability", formula1BreakdownRequest(t))
	post("budget 422", "/api/v1/explain", with(gen, obj{"cutLimit": 1}))
	post("unknown mode", "/api/v1/explain", with(gen, obj{"mode": "divine"}))
	post("validate fresh", "/api/v1/explain", with(gen, obj{"mode": ExplainModeValidate}))
	post("validate stale", "/api/v1/explain", with(gen, obj{"mode": ExplainModeValidate, "currentModelXml": stale.String()}))
	post("validate unknown current diagram", "/api/v1/explain", with(gen, obj{"mode": ExplainModeValidate, "currentDiagram": "ghost"}))
	post("validate bad current model", "/api/v1/explain", with(gen, obj{"mode": ExplainModeValidate, "currentModelXml": "<broken"}))
	post("model only", "/api/v1/lint", obj{"modelXml": modelXML})
	post("bad mapping xml", "/api/v1/lint", with(gen, obj{"mappingXml": "<broken"}))
	post("budget 422", "/api/v1/batch", batch(with(kbest, obj{"op": OpPaths})))
	post("unknown op", "/api/v1/batch", batch(with(gen, obj{"op": "divine"})))
	post("empty items", "/api/v1/batch", `{"items":[]}`)
	post("stale 409", "/api/v1/whatif", with(whatif, obj{"currentModelXml": stale.String()}))
	post("fresh gate", "/api/v1/whatif", with(whatif, obj{"currentModelXml": modelXML}))
	post("unknown current diagram", "/api/v1/whatif", with(whatif, obj{"currentModelXml": modelXML, "currentDiagram": "ghost"}))
	post("bad current model", "/api/v1/whatif", with(whatif, obj{"currentModelXml": "<broken"}))
	post("unknown mode", "/api/v1/whatif", with(whatif, obj{"mode": "demolish"}))
	post("no services", "/api/v1/whatif", model)
	post("apply", "/api/v1/whatif", with(whatif, obj{"mode": WhatIfModeApply, "deltas": []obj{{"op": "remove-node", "node": "p2"}}}))
	post("apply without deltas", "/api/v1/whatif", with(whatif, obj{"mode": WhatIfModeApply}))
	post("unknown delta op", "/api/v1/whatif", with(whatif, obj{"mode": WhatIfModeApply, "deltas": []obj{{"op": "teleport"}}}))
	post("empty failure", "/api/v1/whatif", with(whatif, obj{"failure": nil}))
	post("budget 422", "/api/v1/whatif", with(whatif, obj{"mode": WhatIfModeCritical, "cutLimit": 1}))
	get("negative k", "/api/v1/paths?from=t1&to=printS&k=-1")
	get("negative maxDepth", "/api/v1/paths?from=t1&to=printS&maxDepth=-4&maxPaths=1")
	get("negative maxPaths", "/api/v1/paths?from=t1&to=printS&maxPaths=-1")
	post("negative k", "/api/v1/paths", with(paths, obj{"k": -1}))
	post("negative maxDepth", "/api/v1/paths", with(paths, obj{"maxDepth": -4}))
	post("negative maxPaths", "/api/v1/paths", with(paths, obj{"maxPaths": -1}))
	post("negative k", "/api/v1/batch", batch(with(paths, obj{"op": OpPaths, "k": -1})))
	reserved := with(gen, obj{"modelXml": strings.ReplaceAll(modelXML, `"d4"`, `"c1--d4#0"`)})
	post("reserved link name 422", "/api/v1/availability", with(reserved, obj{"mcSamples": 1000}))
	post("reserved link name 422", "/api/v1/explain", reserved)

	// Decode edge cases: inputs outside the common JSON shape, each pinned
	// on one route of every body kind (flat analysis request, flat paths
	// request, batch item). raw splices a key:value run into base in place
	// of fields that base drops; str is a string field whose value the
	// error text echoes.
	for _, d := range []struct {
		route, str string
		base       obj
		wrap       func(item string) string
	}{
		{"/api/v1/availability", "service", with(gen, obj{"mcSamples": 1000, "seed": 7}), nil},
		{"/api/v1/paths", "from", paths, nil},
		{"/api/v1/batch", "service", with(gen, obj{"op": OpAvailability, "mcSamples": 1000}),
			func(item string) string { return `{"items":[` + item + `],"workers":1}` }},
	} {
		raw := func(drop []string, fields string) string {
			base := with(d.base, obj{"~": 0})
			for _, k := range drop {
				delete(base, k)
			}
			s := strings.Replace(mustJSON(t, base), `"~":0`, fields, 1)
			if d.wrap != nil {
				s = d.wrap(s)
			}
			return s
		}
		post("case-variant key", d.route, raw([]string{"modelXml"}, `"ModelXML":`+mustJSON(t, modelXML)))
		post("duplicate key", d.route, raw([]string{"diagram"}, `"diagram":"ghost","diagram":"infrastructure"`))
		post("null string", d.route, raw([]string{d.str}, `"`+d.str+`":null`))
		post("quoted int", d.route, raw(nil, `"k":"5"`))
		post("fractional int", d.route, raw([]string{"mcSamples"}, `"mcSamples":1.5`))
		post("escaped non-ascii", d.route, raw([]string{d.str}, `"`+d.str+`":"caf\u00e9"`))
		post("surrogate pair", d.route, raw([]string{d.str}, `"`+d.str+`":"\ud83d\ude00"`))
		post("invalid utf-8", d.route, raw([]string{d.str}, `"`+d.str+"\":\"t\xff1\""))
		small := raw(nil, `"name":""`)
		post("oversize body", d.route, raw(nil, `"name":"`+strings.Repeat("x", MaxRequestBytes+1024-len(small))+`"`))
	}

	// Step 5 and Step 6 rejections: names the model space cannot hold and
	// mapping pairs that reference no instance of the diagram.
	post("unknown requester", "/api/v1/generate", with(gen, obj{
		"mappingXml": strings.Replace(mappingXML, `<requester id="t1">`, `<requester id="ghost">`, 1)}))
	post("unknown provider", "/api/v1/generate", with(gen, obj{
		"mappingXml": strings.Replace(mappingXML, `<provider id="printS">`, `<provider id="ghost">`, 1)}))
	post("dotted atomic service", "/api/v1/generate", with(gen, obj{
		"mappingXml": strings.Replace(mappingXML, "</servicemapping>",
			`<atomicservice id="Print.again"><requester id="t1"></requester><provider id="printS"></provider></atomicservice></servicemapping>`, 1)}))
	post("dotted upsim name", "/api/v1/generate", with(gen, obj{"name": "fig.11"}))
	dotted := strings.ReplaceAll(modelXML, `"d4"`, `"d.4"`)
	post("dotted instance name", "/api/v1/paths", with(paths, obj{"modelXml": dotted}))
	post("dotted instance name", "/api/v1/generate", with(gen, obj{"modelXml": dotted}))

	// remove-link without an edgeId removes every parallel edge of the pair
	// (the ranking then reads the patched kernel); an explicit edgeId must
	// join exactly the named pair.
	removeLink := func(d obj) obj { return with(whatif, obj{"mode": WhatIfModeApply, "deltas": []obj{d}}) }
	post("remove-link all parallels", "/api/v1/whatif", removeLink(obj{"op": "remove-link", "a": "c1", "b": "d4"}))
	post("remove-link edge id", "/api/v1/whatif", removeLink(obj{"op": "remove-link", "a": "c1", "b": "d4", "edgeId": 4}))
	post("remove-link edge of another pair", "/api/v1/whatif", removeLink(obj{"op": "remove-link", "a": "c1", "b": "d4", "edgeId": 0}))
	post("remove-link unknown endpoint", "/api/v1/whatif", removeLink(obj{"op": "remove-link", "a": "ghost", "b": "d4", "edgeId": 4}))
	return cases
}

// render serves one case on a fresh handler, so no case sees another's
// cache or warm-lane state, and records the exchange.
func (c contractCase) render() string {
	w := httptest.NewRecorder()
	New().ServeHTTP(w, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s %s: %s\nstatus: %d\ncontent-type: %s\n",
		c.method, c.target, c.name, w.Code, w.Header().Get("Content-Type"))
	body := w.Body.Bytes()
	if len(body) > contractBodyLimit {
		fmt.Fprintf(&b, "body: %d bytes, sha256 %x\n", len(body), sha256.Sum256(body))
		return b.String()
	}
	fmt.Fprintf(&b, "body: %d bytes\n%s", len(body), body)
	if !bytes.HasSuffix(body, []byte("\n")) {
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRouteContract compares every route's responses with the golden file,
// case by case.
func TestRouteContract(t *testing.T) {
	var got []string
	for _, c := range contractCases(t) {
		got = append(got, c.render())
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contractGolden, []byte(strings.Join(got, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(contractGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(string(data), "\n=== ")
	for i := 1; i < len(want); i++ {
		want[i] = "=== " + want[i]
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the table %d; regenerate it with -update", contractGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d differs from %s:\n--- want\n%s--- got\n%s", i, contractGolden, want[i], got[i])
		}
	}
}
