package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"upsim/internal/casestudy"
	"upsim/internal/testutil"
)

// scanAgrees scans body into a fresh T and reports whether the scanner
// accepted it. An accepted body must decode with decodeBody, the strict
// encoding/json path, to a DeepEqual value.
func scanAgrees[T any](t *testing.T, body []byte) bool {
	t.Helper()
	var got T
	var sc scanner
	if !sc.scan(body, any(&got).(scanFielder)) {
		return false
	}
	var want T
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if err := decodeBody(httptest.NewRecorder(), r, &want); err != nil {
		t.Fatalf("%T: scanner accepts %q, encoding/json rejects it: %v", got, body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: scanner decodes %q to\n%+v\nencoding/json to\n%+v", got, body, got, want)
	}
	return true
}

// scanAgreesAll runs scanAgrees for every scanned request type.
func scanAgreesAll(t *testing.T, body []byte) {
	t.Helper()
	scanAgrees[pathsRequest](t, body)
	scanAgrees[generateRequest](t, body)
	scanAgrees[availabilityRequest](t, body)
	scanAgrees[qosRequest](t, body)
	scanAgrees[explainRequest](t, body)
	scanAgrees[BatchRequest](t, body)
}

// tricky holds what json.Marshal escapes: HTML characters, quotes,
// backslashes, control characters, U+2028 and U+2029, beside raw UTF-8.
const tricky = "<a href=\"x&y\">\\</a>\n\t\r\b\f\x01\x1f    é—😀 /"

// fastPathRequests returns one fully populated request of every scanned
// type, plus zero and small ones, as json.Marshal renders them.
func fastPathRequests(modelXML, mappingXML string) []any {
	in := modelInput{ModelXML: modelXML, Diagram: tricky}
	gen := generateRequest{modelInput: in, Service: tricky, MappingXML: mappingXML, Name: "n", AllowDisconnected: true}
	item := BatchItem{
		Op: OpAvailability, ModelXML: modelXML, Diagram: "d", Service: tricky, MappingXML: mappingXML,
		Name: "n", AllowDisconnected: true, Formula1: true, MCSamples: 1000, Seed: math.MaxInt64,
		LegacyKernel: true, MaxHops: 3, From: "a", To: tricky, MaxDepth: 4, MaxPaths: 5, K: 6, Cost: "hops",
	}
	return []any{
		&pathsRequest{modelInput: in, From: "t1", To: tricky, MaxDepth: 9, MaxPaths: -1, K: 999999999999999999, Cost: "throughput"},
		&pathsRequest{},
		&gen,
		&generateRequest{},
		&availabilityRequest{generateRequest: gen, Formula1: true, MCSamples: 20000, Seed: math.MinInt64, LegacyKernel: true},
		&qosRequest{generateRequest: gen, MaxHops: 8},
		&explainRequest{generateRequest: gen, Mode: ExplainModeValidate, Top: 3, CutLimit: 10, Formula1: true,
			LegacyKernel: true, SkipAttribution: true, CurrentModelXML: modelXML, CurrentDiagram: tricky},
		&BatchRequest{Items: []BatchItem{item, {ModelXML: modelXML}, {}, item}, Workers: 2},
		&BatchRequest{Items: []BatchItem{}},
	}
}

// TestScanTakesFastPath: json.Marshal output never leaves the fast path,
// and decodes to the value marshalled — both directly and through the
// handler, where the decode counter records the scanner.
func TestScanTakesFastPath(t *testing.T) {
	modelXML, mappingXML := warmFixture(t)
	for _, v := range fastPathRequests(modelXML, mappingXML) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem())
		var sc scanner
		if !sc.scan(body, got.Interface().(scanFielder)) {
			t.Fatalf("%T: json.Marshal output fell off the fast path", v)
		}
		if !reflect.DeepEqual(got.Interface(), v) {
			t.Fatalf("%T: scanned %+v, marshalled %+v", v, got.Interface(), v)
		}
		// Whitespace anywhere between tokens stays on the fast path.
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, " \r\n", "\t"); err != nil {
			t.Fatal(err)
		}
		indented.WriteString(" \n")
		if !sc.scan(indented.Bytes(), reflect.New(got.Type().Elem()).Interface().(scanFielder)) {
			t.Fatalf("%T: indented json.Marshal output fell off the fast path", v)
		}
	}

	gen := generateRequest{
		modelInput: modelInput{ModelXML: modelXML, Diagram: casestudy.DiagramName},
		Service:    casestudy.PrintingServiceName, MappingXML: mappingXML,
	}
	h := New()
	for route, v := range map[string]any{
		"/api/v1/paths":        &pathsRequest{modelInput: gen.modelInput, From: "t1", To: "printS"},
		"/api/v1/generate":     &gen,
		"/api/v1/availability": &availabilityRequest{generateRequest: gen, MCSamples: 1000},
		"/api/v1/qos":          &qosRequest{generateRequest: gen},
		"/api/v1/explain":      &explainRequest{generateRequest: gen, Top: 2},
		"/api/v1/batch": &BatchRequest{Items: []BatchItem{{Op: OpQoS, ModelXML: modelXML,
			Diagram: casestudy.DiagramName, Service: casestudy.PrintingServiceName, MappingXML: mappingXML}}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		scanned, stdlib := mDecodes.With(route, "scan"), mDecodes.With(route, "stdlib")
		s0, l0 := scanned.Value(), stdlib.Value()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, w.Code, w.Body.String())
		}
		if ds, dl := scanned.Value()-s0, stdlib.Value()-l0; ds != 1 || dl != 0 {
			t.Fatalf("%s: decode counters moved scan +%d, stdlib +%d; want +1, +0", route, ds, dl)
		}
	}
}

// TestScanFallsBack: bodies off the fast path are rejected by the scanner,
// and the handler decodes them with encoding/json (counted as stdlib).
func TestScanFallsBack(t *testing.T) {
	for _, body := range []string{
		`{"ModelXML":"m"}`,                // case-variant key
		`{"diagram":"a","diagram":"b"}`,   // duplicate key
		`{"diagram":null}`,                // null
		`{"k":"5"}`,                       // wrong type
		`{"k":1.5}`,                       // fraction
		`{"k":1e3}`,                       // exponent
		`{"k":9223372036854775808}`,       // beyond int64
		`{"seed":-9223372036854775809}`,   // beyond int64
		`{"k":12345678901234567890}`,      // 20 digits
		`{"k":01}`,                        // leading zero
		`{"diagram":"\ud83d\ude00"}`,      // surrogate escape
		`{"diagram":"\x"}`,                // unknown escape
		`{"diagram":"\u00zz"}`,            // bad hex
		"{\"diagram\":\"\xff\"}",          // invalid UTF-8
		"{\"diagram\":\"\x01\"}",          // control byte
		`{"di\u0061gram":"d"}`,            // escaped key
		`{"diagram":"d"} x`,               // trailing data
		`{"diagram":"d"}{}`,               // trailing value
		`{"diagram":"d"`,                  // truncated
		`{"diagram":"d",}`,                // trailing comma
		`{"allowDisconnected":True}`,      // bad literal
		`["diagram"]`,                     // not an object
		"\ufeff{}",                        // byte-order mark
		`{"bogus":1}`,                     // unknown key
		`{"items":null}`,                  // null items
		`{"items":[1]}`,                   // item not an object
		`{"items":[{"k":"5"}]}`,           // wrong type in an item
		`{"items":[{}],"items":[{}]}`,     // duplicate items
		`{"items":[{"op":"a","op":"b"}]}`, // duplicate key in an item
	} {
		for _, v := range []scanFielder{&pathsRequest{}, &availabilityRequest{}, &BatchRequest{}} {
			var sc scanner
			if sc.scan([]byte(body), v) {
				t.Errorf("%T: scanner accepts %s", v, body)
			}
		}
	}
	h := New()
	const route = "/api/v1/paths"
	stdlib := mDecodes.With(route, "stdlib")
	before := stdlib.Value()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, strings.NewReader(`{"k":"5"}`)))
	if w.Code != http.StatusBadRequest || stdlib.Value() != before+1 {
		t.Fatalf("status %d, stdlib decodes +%d: %s", w.Code, stdlib.Value()-before, w.Body.String())
	}
}

// FuzzRequestDecode: whenever the scanner accepts a body, as any of the
// scanned request types, encoding/json decodes it to a DeepEqual value.
// (A rejected body goes to encoding/json itself, so error texts agree by
// construction.)
func FuzzRequestDecode(f *testing.F) {
	modelXML, mappingXML := warmFixture(f)
	for _, c := range contractCases(f) {
		if c.method == http.MethodPost && len(c.body) <= 1<<16 {
			f.Add([]byte(c.body))
		}
	}
	for _, v := range fastPathRequests(modelXML, mappingXML) {
		f.Add([]byte(mustJSON(f, v)))
	}
	for _, s := range []string{
		`{"modelXml":"<m/>","diagram":"d","k":-0,"from":"\"","to":"\\\/"}`,
		`{"items":[{"op":"paths","modelXml":"m","k":5},{"modelXml":"m","seed":-9}],"workers":3}`,
		`{"mode":"validate","currentModelXml":"m","modelXml":"m","top":1,"formula1":false}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		scanAgreesAll(t, body)
	})
}

// TestScanDetachesStrings: no decoded string points into the body or the
// scanner's scratch buffer, and byte-equal modelXml literals share one
// string.
func TestScanDetachesStrings(t *testing.T) {
	modelXML, mappingXML := warmFixture(t)
	item := BatchItem{ModelXML: modelXML, Diagram: tricky, Service: "s", MappingXML: mappingXML, From: "f"}
	other := item
	other.ModelXML += " "
	body := []byte(mustJSON(t, BatchRequest{Items: []BatchItem{item, other, item}}))
	var req BatchRequest
	var sc scanner
	if !sc.scan(body, &req) {
		t.Fatal("scanner rejects a marshalled batch")
	}
	within := func(b []byte, s string) bool {
		if len(s) == 0 || cap(b) == 0 {
			return false
		}
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return p >= lo && p < lo+uintptr(cap(b))
	}
	n := 0
	for i := range req.Items {
		v := reflect.ValueOf(req.Items[i])
		for f := 0; f < v.NumField(); f++ {
			if s := v.Field(f); s.Kind() == reflect.String {
				n++
				if within(body, s.String()) || within(sc.scratch, s.String()) {
					t.Errorf("item %d field %s points into the scanner's input", i, v.Type().Field(f).Name)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no strings checked")
	}
	if unsafe.StringData(req.Items[0].ModelXML) != unsafe.StringData(req.Items[2].ModelXML) {
		t.Error("repeated modelXml literal decoded twice")
	}
	if req.Items[1].ModelXML != other.ModelXML || unsafe.StringData(req.Items[0].ModelXML) == unsafe.StringData(req.Items[1].ModelXML) {
		t.Error("distinct modelXml literals share a string")
	}
}

// scanSink keeps the decoded batch reachable so the decode is not
// optimised away.
var scanSink BatchRequest

// TestScanBatchAllocs pins the cost of decoding a 16-item batch over two
// models: per item its few strings, per distinct model one string, and the
// items slice.
func TestScanBatchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts counts")
	}
	modelXML, mappingXML := warmFixture(t)
	models := []string{modelXML, strings.Replace(modelXML, casestudy.DiagramName, "infra2", -1)}
	var req BatchRequest
	for i := 0; i < 16; i++ {
		req.Items = append(req.Items, BatchItem{
			Op: OpQoS, ModelXML: models[i%2], Diagram: casestudy.DiagramName,
			Service: casestudy.PrintingServiceName, MappingXML: mappingXML, Name: fmt.Sprint("n", i),
		})
	}
	body := []byte(mustJSON(t, req))
	var sc scanner
	decode := func() {
		scanSink = BatchRequest{}
		if !sc.scan(body, &scanSink) {
			t.Fatal("scanner rejects the batch")
		}
	}
	decode()
	allocs := testing.AllocsPerRun(20, decode)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 20
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&m1)
	perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
	// 2 models + 16 items × 5 strings + 5 slice growths = 87.
	const maxAllocs, maxBytes = 90, 64 << 10
	t.Logf("16-item batch body (%d B): %.0f allocs, %d B per decode", len(body), allocs, perRun)
	if allocs > maxAllocs {
		t.Errorf("decode allocates %.0f objects, ceiling %d", allocs, maxAllocs)
	}
	if perRun > maxBytes {
		t.Errorf("decode allocates %d B, ceiling %d", perRun, maxBytes)
	}
}
