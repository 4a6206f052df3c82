// Package server exposes the UPSIM pipeline over HTTP as a small JSON API,
// turning the library into the kind of network-management service the paper
// targets ("Service networks; Service network management"): operations teams
// can POST a model, a service and a mapping and get back the user-perceived
// infrastructure and its availability for any (requester, provider) pair.
//
// Endpoints (models travel in the request; the only server-side state is a
// content-addressed cache of derived results, so any replica can serve any
// request):
//
//	GET  /healthz                      liveness probe
//	GET  /metrics                      Prometheus text exposition (internal/obs)
//	GET  /debug/vars                   expvar JSON, including the obs snapshot
//	GET  /api/v1/casestudy/model       built-in USI model (XML)
//	GET  /api/v1/casestudy/mapping     built-in Table I mapping (XML)
//	GET  /api/v1/paths                 paths through the built-in case-study model
//	POST /api/v1/paths                 all simple paths — or the k cheapest under a
//	                                   cost metric — between two components
//	POST /api/v1/generate              generate a UPSIM
//	POST /api/v1/availability          generate + Section VII analysis
//	POST /api/v1/qos                   performability + responsiveness
//	POST /api/v1/explain               provenance & attribution report (mode
//	                                   "validate" checks a generation against a
//	                                   current topology instead)
//	POST /api/v1/lint                  static-analysis report for model, service and mapping
//	POST /api/v1/batch                 many generate/availability/qos/paths items,
//	                                   fanned out across a worker pool through the
//	                                   shared cache
//	POST /api/v1/whatif                live-topology what-if: failure impact, permanent
//	                                   topology deltas with targeted cache invalidation,
//	                                   critical-component ranking (internal/whatif)
//
// This table is mirrored in README.md ("HTTP API") and fully specified in
// docs/API.md; update all of them together.
//
// The generation-backed routes (generate, availability, qos, batch) run
// through one shared internal/cache.Cache (capacity Config.CacheSize):
// repeated identical requests skip Steps 6–8 entirely and concurrent
// identical requests compute once (singleflight). The warm lane keeps its
// replies in a second cache.Cache (capacity Config.WarmSize). Cache
// traffic is visible on GET /metrics as
// upsim_cache_{hits,misses,evictions,singleflight_shared}_total, summed
// over both caches: every warm replay counts as a hit and every warm probe
// that finds nothing as a miss.
//
// Every JSON POST route runs one request pipeline (serve): a strict decode
// of the body — by the single-pass scanner of scan.go where it applies, by
// encoding/json otherwise — a typed handler returning (reply, error), and
// respond, which renders every error in one place and writes the reply,
// publishing memoised analysis bytes to the warm lane.
//
// Every API route runs behind the observability middleware (request-ID
// injection, request counter, per-route latency histogram, in-flight gauge,
// panic recovery → JSON 500); see middleware.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"upsim/internal/cache"
	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/explain"
	"upsim/internal/jsonenc"
	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// MaxRequestBytes bounds request bodies (models are small; 8 MiB is
// generous).
const MaxRequestBytes = 8 << 20

// publishOnce guards the process-wide expvar registration (expvar panics on
// duplicate names; New may be called per test).
var publishOnce sync.Once

// Config tunes the handler. The zero value is ready to use.
type Config struct {
	// CacheSize bounds the shared generation cache (entries); <= 0 selects
	// cache.DefaultMaxEntries.
	CacheSize int
	// BatchWorkers bounds the per-request fan-out of POST /api/v1/batch;
	// <= 0 selects runtime.GOMAXPROCS(0). A request's own "workers" field
	// overrides it.
	BatchWorkers int
	// WarmSize bounds the dedicated warm-lane response cache (entries);
	// <= 0 selects cache.DefaultMaxEntries. The warm lane used to share the
	// generation cache; a dedicated bound keeps a flood of distinct request
	// bodies from evicting generation results (and vice versa).
	WarmSize int
	// Prewarm builds a generator for the built-in case-study model at
	// construction time and parks it in the pool, so the first request
	// referencing that model (GET /api/v1/paths always does) skips XML
	// decode, VPM import and CSR compilation.
	Prewarm bool
}

// api is the per-handler shared state: the content-addressed result cache
// every generation-backed route runs through, the dedicated warm-lane
// response cache (nil turns the lane off), the generator pool that shares
// one built generator per model across requests — its generators carry the
// result cache — and the batch pool bound.
type api struct {
	cache        *cache.Cache
	warm         *cache.Cache
	generators   *core.GeneratorPool
	batchWorkers int
}

// New returns the HTTP handler serving the API with the default Config.
func New() http.Handler { return NewWithConfig(Config{}) }

// newAPI builds the shared handler state (split from NewWithConfig so tests
// can reach the pool and the warm cache directly).
func newAPI(cfg Config) *api {
	c := cache.New(cfg.CacheSize)
	a := &api{
		cache:        c,
		warm:         cache.New(cfg.WarmSize),
		generators:   core.NewGeneratorPool(c, 0, 0),
		batchWorkers: cfg.BatchWorkers,
	}
	mWarmCapacity.With().Set(int64(a.warm.Stats().MaxEntries))
	if cfg.Prewarm {
		a.prewarm()
	}
	return a
}

// prewarm makes a ready generator for the built-in case-study model
// resident in the pool. Failures are ignored: prewarming is an
// optimisation, and the model is built from source so it cannot actually
// fail.
func (a *api) prewarm() {
	if xml, err := caseStudyXML(); err == nil {
		_, _ = a.generators.Acquire(context.Background(), xml, casestudy.DiagramName)
	}
}

// NewWithConfig returns the HTTP handler serving the API.
func NewWithConfig(cfg Config) http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("upsim", expvar.Func(func() any {
			return obs.DefaultRegistry().Snapshot()
		}))
	})
	return newAPI(cfg).routes()
}

// routes assembles the mux over the shared state. A route's metric label is
// its pattern's path.
func (a *api) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		_, route, _ := strings.Cut(pattern, " ")
		mux.HandleFunc(pattern, instrument(route, h))
	}
	// post registers a JSON POST route. A non-empty warm prefix puts the
	// warm byte-level lane (see warm.go) in front: a repeated body is
	// answered from memoised response bytes without JSON decoding,
	// generation or allocation.
	post := func(pattern, warmPrefix string, h func(route string) http.HandlerFunc) {
		_, route, _ := strings.Cut(pattern, " ")
		if warmPrefix == "" {
			mux.HandleFunc(pattern, instrument(route, h(route)))
			return
		}
		mux.HandleFunc(pattern, a.instrumentWarm(route, warmPrefix, h(route)))
	}
	handle("GET /healthz", handleHealth)
	handle("GET /api/v1/casestudy/model", handleCaseStudyModel)
	handle("GET /api/v1/casestudy/mapping", handleCaseStudyMapping)
	handle("GET /api/v1/paths", func(w http.ResponseWriter, r *http.Request) {
		v, err := a.handlePathsQuery(r)
		a.respond(w, r, v, err)
	})
	post("POST /api/v1/paths", "", serve(a, a.handlePaths))
	post("POST /api/v1/generate", "", serve(a, a.handleGenerate))
	post("POST /api/v1/availability", warmPrefixAvailability, serve(a, a.handleAvailability))
	post("POST /api/v1/qos", warmPrefixQoS, serve(a, a.handleQoS))
	post("POST /api/v1/explain", warmPrefixExplain, serve(a, a.handleExplain))
	post("POST /api/v1/lint", "", serve(a, handleLint))
	post("POST /api/v1/batch", warmPrefixBatch, serve(a, a.handleBatch))
	post("POST /api/v1/whatif", "", serve(a, a.handleWhatIf))
	mux.Handle("GET /metrics", obs.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusError carries the HTTP status a handler chose for its error; body,
// when set, replaces the uniform error body. A handler error without one is
// the request's fault and answers 400.
type statusError struct {
	status int
	err    error
	body   any
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func withStatus(status int, err error) error { return &statusError{status: status, err: err} }

// unprocessable marks an analysis failure on a well-formed request (422).
func unprocessable(err error) error { return withStatus(http.StatusUnprocessableEntity, err) }

// mDecodes counts decoded request bodies by route and decoder: "scan" for
// the single-pass scanner (scan.go), "stdlib" for the strict encoding/json
// decoder that serves every other body.
var mDecodes = obs.NewCounter("upsim_server_decode_total",
	"Request bodies decoded, by route and decoder (scan or stdlib).", "route", "path")

// serve is the request pipeline of the JSON POST routes: the body read into
// a pooled buffer (the warm lane's, when it already holds the body), a
// decode into a fresh T (a failure is the uniform 400), the typed handler,
// then respond. The route names the decode counter's series. A T the
// scanner covers is scanned from the buffer; any other T, and any body the
// scanner does not accept, is decoded by decodeBody from the replayed bytes.
func serve[T any](a *api, h func(context.Context, *T) (any, error)) func(route string) http.HandlerFunc {
	return func(route string) http.HandlerFunc {
		scanned, stdlib := mDecodes.With(route, "scan"), mDecodes.With(route, "stdlib")
		return func(w http.ResponseWriter, r *http.Request) {
			wr, ok := r.Body.(*warmReq)
			if !ok {
				wr = warmPool.Get().(*warmReq)
				defer wr.recycle()
				// A failed read is replayed with its error, which the
				// decode below then reports.
				_ = wr.fill(r.Body, r.ContentLength)
				wr.replay(r)
			}
			var req T
			// Only a body fill read whole is scanned.
			if f, ok := any(&req).(scanFielder); ok && wr.err == nil && wr.sc.scan(wr.buf, f) {
				scanned.Inc()
			} else {
				req = *new(T)
				stdlib.Inc()
				if err := decodeBody(w, r, &req); err != nil {
					writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
					return
				}
			}
			v, err := h(r.Context(), &req)
			a.respond(w, r, v, err)
		}
	}
}

// decodeBody decodes exactly one JSON value from the request body into v:
// unknown fields and anything but whitespace after the value are errors.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// respond writes a handler's outcome: an error through writeFailure, a
// memoised *encodedResponse from its bytes (then published to the warm lane
// under the request's body key), any other reply encoded now.
func (a *api) respond(w http.ResponseWriter, r *http.Request, v any, err error) {
	if err != nil {
		writeFailure(w, err)
		return
	}
	enc, ok := v.(*encodedResponse)
	if !ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(enc.body)
	a.storeWarm(r, enc)
}

// writeFailure renders a handler error: a budget or limit overflow anywhere
// in its chain as the structured 422, anything else at the status its
// handler attached (400 when none) with the uniform body or the handler's
// own.
func writeFailure(w http.ResponseWriter, err error) {
	if b := budgetBody(err); b != nil {
		writeJSON(w, http.StatusUnprocessableEntity, b)
		return
	}
	var se *statusError
	switch {
	case !errors.As(err, &se):
		writeError(w, http.StatusBadRequest, "%v", err)
	case se.body != nil:
		writeJSON(w, se.status, se.body)
	default:
		writeError(w, se.status, "%v", err)
	}
}

// mResponseEncodes counts JSON encodings performed by the cached analysis
// routes. Warm cache hits replay memoised bytes, so under a steady repeated
// load this counter stays flat while the route's request counter climbs.
var mResponseEncodes = obs.NewCounter("upsim_server_response_encodes_total",
	"JSON response encodings by route (cache hits reuse memoised bytes)", "route")

// encodedResponse pairs an analysis response value with its JSON encoding,
// produced once inside the cache's compute function. Cache hits write the
// memoised bytes directly and skip re-marshalling; the decoded value stays
// available for in-process consumers (the batch fan-out embeds it in its own
// reply, which is encoded as a whole).
type encodedResponse struct {
	value any
	body  []byte
}

// encodeResponse marshals v exactly as writeJSON would — json.Marshal plus
// the trailing newline json.Encoder appends — so the raw-bytes path is
// byte-identical to the encode-per-request path it replaces.
func encodeResponse(route string, v any) (*encodedResponse, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	mResponseEncodes.With(route).Inc()
	return &encodedResponse{value: v, body: append(b, '\n')}, nil
}

// budgetErrorResponse is the structured 422 body for analysis-budget
// exhaustion: which budget overflowed, on which atomic service, and by how
// much — enough for a client to raise the limit or shrink the model instead
// of parsing an error string.
type budgetErrorResponse struct {
	errorResponse
	Kind          string `json:"kind"`
	AtomicService string `json:"atomicService,omitempty"`
	Need          int    `json:"need,omitempty"`
	Limit         int    `json:"limit"`
}

// budgetBody renders a budget overflow anywhere in err's chain as the
// structured budget body, or returns nil. For the path-discovery limits the
// requester→provider pair plays the atomic-service role, Kind distinguishes
// the enumeration hard limit ("paths") from the ranked work envelope
// ("kbest"), and Need falls back to Limit+1 for enumeration errors, which
// only know the limit they hit. The single routes answer it as their 422
// body; batch items carry it in their budget field.
func budgetBody(err error) *budgetErrorResponse {
	if be, ok := depend.AsBudgetError(err); ok {
		return &budgetErrorResponse{
			errorResponse: errorResponse{Error: be.Error()},
			Kind:          string(be.Kind),
			AtomicService: be.AtomicService,
			Need:          be.Need,
			Limit:         be.Limit,
		}
	}
	le, ok := pathdisc.AsLimitError(err)
	if !ok {
		return nil
	}
	need := le.Need
	if need == 0 {
		need = le.Limit + 1
	}
	return &budgetErrorResponse{
		errorResponse: errorResponse{Error: le.Error()},
		Kind:          le.BudgetKind(),
		AtomicService: le.Src + "→" + le.Dst,
		Need:          need,
		Limit:         le.Limit,
	}
}

func handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleCaseStudyModel(w http.ResponseWriter, _ *http.Request) {
	m, err := casestudy.BuildModel()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building case study: %v", err)
		return
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		writeError(w, http.StatusInternalServerError, "building printing service: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := uml.Encode(&buf, m); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding model: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(buf.Bytes())
}

func handleCaseStudyMapping(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := casestudy.TableIMapping().Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding mapping: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(buf.Bytes())
}

// modelInput is the common request fragment carrying the UML model.
type modelInput struct {
	// ModelXML is the model in the library's XML dialect.
	ModelXML string `json:"modelXml"`
	// Diagram names the infrastructure object diagram.
	Diagram string `json:"diagram"`
}

// validate checks the required fields before any decode work.
func (in *modelInput) validate() error {
	if strings.TrimSpace(in.ModelXML) == "" {
		return fmt.Errorf("modelXml is required")
	}
	if in.Diagram == "" {
		return fmt.Errorf("diagram is required")
	}
	return nil
}

// currentDiagram resolves the topology a generation is validated against:
// the diagram currentName (default: the request diagram) of the model
// currentXML (default: the request model).
func (in *modelInput) currentDiagram(currentXML, currentName string) (*uml.ObjectDiagram, error) {
	if strings.TrimSpace(currentXML) == "" {
		currentXML = in.ModelXML
	}
	if currentName == "" {
		currentName = in.Diagram
	}
	cm, err := uml.DecodeString(currentXML)
	if err != nil {
		return nil, fmt.Errorf("current model: %w", err)
	}
	d, ok := cm.Diagram(currentName)
	if !ok {
		return nil, fmt.Errorf("current model has no diagram %q", currentName)
	}
	return d, nil
}

// pathsRequest asks for simple paths between two components: all of them
// (the default), or — k > 0 — the k cheapest under a cost metric.
type pathsRequest struct {
	modelInput
	From     string `json:"from"`
	To       string `json:"to"`
	MaxDepth int    `json:"maxDepth,omitempty"`
	MaxPaths int    `json:"maxPaths,omitempty"`
	// K switches to ranked discovery: the k cheapest paths under Cost,
	// found by the budgeted k-best kernel instead of full enumeration.
	// MaxDepth and MaxPaths do not apply in ranked mode.
	K int `json:"k,omitempty"`
	// Cost selects the ranking metric: "hops" (default) or "throughput"
	// (each link costs 1/throughput from its Communication stereotype,
	// plain links cost 1).
	Cost string `json:"cost,omitempty"`
}

// validate checks the model input and rejects negative discovery bounds:
// zero already means "unbounded", so a sign slip must not turn a bounded
// request into a full enumeration.
func (req *pathsRequest) validate() error {
	if err := req.modelInput.validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"k", req.K}, {"maxDepth", req.MaxDepth}, {"maxPaths", req.MaxPaths}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0", f.name)
		}
	}
	return nil
}

// rankedPathJSON is one ranked-discovery result: the hop sequence plus the
// stereotype-derived metrics joined from the provenance layer.
type rankedPathJSON struct {
	Path string `json:"path"`
	Hops int    `json:"hops"`
	// Cost is the path's cost under the requested metric — the exact value
	// the kernel ranked by.
	Cost float64 `json:"cost"`
	// BottleneckMbps is the smallest declared throughput along the path (0
	// when no link declares one).
	BottleneckMbps float64 `json:"bottleneckMbps,omitempty"`
	// Channels lists the distinct channel attributes in traversal order.
	Channels []string `json:"channels,omitempty"`
}

// pathsResponse returns the enumeration together with the full discovery
// instrumentation (the Stats the seed silently dropped). In ranked mode
// (k > 0) Ranked carries the per-path cost records and Paths the same hop
// sequences in rank order.
type pathsResponse struct {
	Paths        []string `json:"paths"`
	PathCount    int      `json:"pathCount"`
	EdgeVisits   int      `json:"edgeVisits"`
	NodesVisited int      `json:"nodesVisited"`
	MaxStack     int      `json:"maxStack"`
	Pruned       int      `json:"pruned"`
	Truncated    bool     `json:"truncated"`
	// CostMetric echoes the ranking metric in ranked mode.
	CostMetric string `json:"costMetric,omitempty"`
	// Ranked carries the per-path records in ranked mode.
	Ranked []rankedPathJSON `json:"ranked,omitempty"`
	// PathStats aggregates the enumeration: length spread and the
	// direct/transitive split plus the depth histogram (internal/explain).
	PathStats explain.PathStatistics `json:"pathStats"`
}

// pathsHardLimit bounds the /api/v1/paths enumeration: a request whose pair
// holds more simple paths than this gets a structured 422 instead of an
// unbounded (potentially memory-exhausting) search that used to surface as a
// bare 500. Variable so tests can lower it.
var pathsHardLimit = 1 << 20

// pathsWorkLimit bounds ranked discovery's K·V·E work estimate on
// /api/v1/paths, the k-best analogue of pathsHardLimit. Variable so tests
// can lower it.
var pathsWorkLimit = 1 << 26

// handlePaths runs the discovery — full enumeration, or the budgeted k-best
// kernel when req.K > 0 — on a pooled generator. It serves the POST route,
// the GET route (built-in case-study model) and the batch "paths" op;
// budget overflows surface as *pathdisc.LimitError.
func (a *api) handlePaths(ctx context.Context, req *pathsRequest) (any, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	gen, err := a.generators.Acquire(ctx, req.ModelXML, req.Diagram)
	if err != nil {
		return nil, err
	}
	metric, err := pathdisc.ParseCostMetric(req.Cost)
	if err != nil {
		return nil, err
	}
	c := gen.Compiled()
	var (
		paths []pathdisc.Path
		stats pathdisc.Stats
	)
	if req.K > 0 {
		paths, stats, err = c.KShortest(req.From, req.To,
			pathdisc.Options{K: req.K, CostMetric: metric, MaxWork: pathsWorkLimit})
	} else {
		// The generator compiled the CSR kernel at acquire time; enumerate
		// through it rather than compiling the graph again.
		paths, stats, err = c.AllPaths(req.From, req.To,
			pathdisc.Options{MaxDepth: req.MaxDepth, MaxPaths: req.MaxPaths, HardMaxPaths: pathsHardLimit})
	}
	if err != nil {
		return nil, err
	}
	resp := &pathsResponse{
		PathCount:    stats.Paths,
		EdgeVisits:   stats.EdgeVisits,
		NodesVisited: stats.NodeVisits,
		MaxStack:     stats.MaxStack,
		Pruned:       stats.Pruned,
		Truncated:    stats.Truncated,
		PathStats:    explain.Statistics(paths),
	}
	for _, p := range paths {
		resp.Paths = append(resp.Paths, p.String())
	}
	if req.K > 0 {
		resp.CostMetric = metric.String()
		for i, p := range paths {
			_, bottleneck, channels := explain.DiagramPathMetrics(gen.Diagram(), p)
			resp.Ranked = append(resp.Ranked, rankedPathJSON{
				Path: resp.Paths[i],
				Hops: p.Len(),
				// PathCost folds in the kernel's summation order, so this
				// is the exact ranking cost, not a re-derived approximation.
				Cost:           c.PathCost(metric, p),
				BottleneckMbps: bottleneck,
				Channels:       channels,
			})
		}
	}
	return resp, nil
}

// caseStudyXML memoises the encoded case-study model: the model is built
// from source, so the XML is a process constant.
var caseStudyXML = sync.OnceValues(func() (string, error) {
	m, err := casestudy.BuildModel()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := uml.Encode(&buf, m); err != nil {
		return "", err
	}
	return buf.String(), nil
})

// handlePathsQuery serves path discovery over the built-in case-study model
// — the server is stateless, so the GET form cannot carry a model and
// instead answers against the paper's Figure 8 topology. Query parameters:
// from, to (required), k, cost, maxDepth, maxPaths.
func (a *api) handlePathsQuery(r *http.Request) (any, error) {
	q := r.URL.Query()
	req := pathsRequest{
		From: q.Get("from"),
		To:   q.Get("to"),
		Cost: q.Get("cost"),
	}
	if req.From == "" || req.To == "" {
		return nil, errors.New("from and to are required")
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"k", &req.K}, {"maxDepth", &req.MaxDepth}, {"maxPaths", &req.MaxPaths}} {
		if s := q.Get(f.name); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("invalid %s: %w", f.name, err)
			}
			*f.dst = n
		}
	}
	xml, err := caseStudyXML()
	if err != nil {
		return nil, withStatus(http.StatusInternalServerError, fmt.Errorf("building case study: %w", err))
	}
	req.modelInput = modelInput{ModelXML: xml, Diagram: casestudy.DiagramName}
	return a.handlePaths(r.Context(), &req)
}

// generateRequest asks for a UPSIM.
type generateRequest struct {
	modelInput
	// Service names an activity of the model.
	Service string `json:"service"`
	// MappingXML is the Figure 3 mapping document.
	MappingXML string `json:"mappingXml"`
	// Name names the generated UPSIM (default "upsim").
	Name string `json:"name,omitempty"`
	// AllowDisconnected tolerates unreachable pairs.
	AllowDisconnected bool `json:"allowDisconnected,omitempty"`
}

// gen returns the generation part of a request; the analysis requests
// embed it.
func (req *generateRequest) gen() *generateRequest { return req }

// generate runs the pipeline for one request on the model's shared pooled
// generator through the shared cache. A repeated model skips XML decode,
// the Step 5 check and CSR compilation, and the generation leaves the
// generator as it found it, so concurrent requests share it freely. The
// cache key derives from the request content, so identical requests hit
// the same entry whichever generator computes them. The result's Key is
// that generation content hash; the analysis memo keys extend it, so
// replays skip recompilation, not just regeneration.
func (a *api) generate(ctx context.Context, req *generateRequest) (*core.Result, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	gen, err := a.generators.Acquire(ctx, req.ModelXML, req.Diagram)
	if err != nil {
		return nil, err
	}
	svc, err := gen.Composite(req.Service)
	if err != nil {
		return nil, err
	}
	mp, err := mapping.ParseString(req.MappingXML)
	if err != nil {
		return nil, err
	}
	name := req.Name
	if name == "" {
		name = "upsim"
	}
	return gen.GenerateContext(ctx, svc, mp, name, core.Options{AllowDisconnected: req.AllowDisconnected})
}

// linkJSON is one UPSIM link.
type linkJSON struct {
	A           string `json:"a"`
	B           string `json:"b"`
	Association string `json:"association"`
}

// serviceStatsJSON is the Step 7 instrumentation for one atomic service.
type serviceStatsJSON struct {
	AtomicService string `json:"atomicService"`
	Requester     string `json:"requester"`
	Provider      string `json:"provider"`
	Paths         int    `json:"paths"`
	EdgeVisits    int    `json:"edgeVisits"`
	NodesVisited  int    `json:"nodesVisited"`
	MaxStack      int    `json:"maxStack"`
	Pruned        int    `json:"pruned"`
	Truncated     bool   `json:"truncated"`
	// PathStats summarises this service's discovered paths.
	PathStats explain.PathStatistics `json:"pathStats"`
}

// generateResponse returns the UPSIM plus the per-service discovery stats.
type generateResponse struct {
	Name       string             `json:"name"`
	Nodes      []string           `json:"nodes"`
	Links      []linkJSON         `json:"links"`
	Paths      pathsByService     `json:"pathsByService"`
	TotalPaths int                `json:"totalPaths"`
	EdgeVisits int                `json:"edgeVisits"`
	Services   []serviceStatsJSON `json:"serviceStats"`
	// PathStats aggregates all services' discovered paths.
	PathStats explain.PathStatistics `json:"pathStats"`
	// Truncated is true when any atomic service hit its MaxPaths budget, so
	// the UPSIM (and every analysis derived from it) is a lower bound.
	Truncated bool `json:"truncated"`
}

// pathsByService maps each atomic service to its rendered paths. It
// encodes to the JSON encoding/json writes for a map[string][]string,
// without reflection.
type pathsByService map[string][]string

// MarshalJSON implements json.Marshaler.
func (p pathsByService) MarshalJSON() ([]byte, error) {
	return jsonenc.AppendMap(nil, p, jsonenc.AppendStrings), nil
}

// handleGenerate serves the generate route and the batch "generate" op.
func (a *api) handleGenerate(ctx context.Context, req *generateRequest) (any, error) {
	res, err := a.generate(ctx, req)
	if err != nil {
		return nil, err
	}
	return buildGenerateResponse(res), nil
}

// buildGenerateResponse renders a pipeline Result.
func buildGenerateResponse(res *core.Result) generateResponse {
	resp := generateResponse{
		Name:       res.Name,
		Nodes:      res.NodeNames(),
		Paths:      make(pathsByService, len(res.Services)),
		TotalPaths: res.TotalPaths,
		EdgeVisits: res.EdgeVisits,
	}
	for _, l := range res.UPSIM.Links() {
		a, b := l.Ends()
		resp.Links = append(resp.Links, linkJSON{A: a.Name(), B: b.Name(), Association: l.Association().Name()})
	}
	var all []pathdisc.Path
	for _, sp := range res.Services {
		var ps []string
		for _, p := range sp.Paths {
			ps = append(ps, p.String())
		}
		resp.Paths[sp.AtomicService] = ps
		resp.Services = append(resp.Services, serviceStatsJSON{
			AtomicService: sp.AtomicService,
			Requester:     sp.Requester,
			Provider:      sp.Provider,
			Paths:         sp.Stats.Paths,
			EdgeVisits:    sp.Stats.EdgeVisits,
			NodesVisited:  sp.Stats.NodeVisits,
			MaxStack:      sp.Stats.MaxStack,
			Pruned:        sp.Stats.Pruned,
			Truncated:     sp.Stats.Truncated,
			PathStats:     explain.Statistics(sp.Paths),
		})
		all = append(all, sp.Paths...)
		resp.Truncated = resp.Truncated || sp.Stats.Truncated
	}
	resp.PathStats = explain.Statistics(all)
	return resp
}

// analysisRequest is a request answered by a memoised analysis of its
// generation. Each request type owns its cache key — the generation content
// hash plus every analysis knob — and its computation, so the single routes
// and the batch items run one code path.
type analysisRequest interface {
	gen() *generateRequest
	// route labels the response-encode counter.
	route() string
	cacheKey(genKey string) string
	compute(ctx context.Context, res *core.Result) (any, error)
}

// analyze generates q's UPSIM, then answers q through memo.
func (a *api) analyze(ctx context.Context, q analysisRequest) (*encodedResponse, error) {
	res, err := a.generate(ctx, q.gen())
	if err != nil {
		return nil, err
	}
	return a.memo(ctx, q, res)
}

// memo runs q's analysis of res and its JSON encoding once per cache key.
// The shared cache holds the encoded reply, so a replay skips structure
// extraction, kernel compilation and re-marshalling alike, and a warm hit
// writes the stored bytes straight to the wire.
func (a *api) memo(ctx context.Context, q analysisRequest, res *core.Result) (*encodedResponse, error) {
	v, _, err := a.cache.Do(ctx, q.cacheKey(res.Key), func() (any, error) {
		val, err := q.compute(ctx, res)
		if err != nil {
			return nil, err
		}
		return encodeResponse(q.route(), val)
	})
	if err != nil {
		return nil, unprocessable(err)
	}
	return v.(*encodedResponse), nil
}

// availabilityModel maps the formula1 request knob to the component
// availability model.
func availabilityModel(formula1 bool) depend.AvailabilityModel {
	if formula1 {
		return depend.ModelFormula1
	}
	return depend.ModelExact
}

// availabilityRequest asks for the Section VII analysis.
type availabilityRequest struct {
	generateRequest
	// Formula1 selects the paper's approximation for component
	// availability.
	Formula1 bool `json:"formula1,omitempty"`
	// MCSamples sets the Monte-Carlo sample count (default 100000).
	MCSamples int `json:"mcSamples,omitempty"`
	// Seed sets the Monte-Carlo seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// LegacyKernel is accepted and ignored: the analysis always runs on the
	// compiled kernel. The field stays so bodies that still send it decode
	// under DisallowUnknownFields and answer the same bytes.
	LegacyKernel bool `json:"legacyKernel,omitempty"`
}

// availabilityResponse returns the analysis report.
type availabilityResponse struct {
	Exact                float64 `json:"exact"`
	RBDApprox            float64 `json:"rbdApprox"`
	FTApprox             float64 `json:"ftApprox"`
	MonteCarlo           float64 `json:"monteCarlo"`
	MCStdErr             float64 `json:"mcStdErr"`
	DowntimePerYearHours float64 `json:"downtimePerYearHours"`
	Components           int     `json:"components"`
}

func (a *api) handleAvailability(ctx context.Context, req *availabilityRequest) (any, error) {
	return a.analyze(ctx, req)
}

func (req *availabilityRequest) route() string { return "/api/v1/availability" }

// knobs resolves the Monte Carlo defaults.
func (req *availabilityRequest) knobs() (model depend.AvailabilityModel, samples int, seed int64) {
	samples, seed = req.MCSamples, req.Seed
	if samples <= 0 {
		samples = 100000
	}
	if seed == 0 {
		seed = 1
	}
	return availabilityModel(req.Formula1), samples, seed
}

func (req *availabilityRequest) cacheKey(genKey string) string {
	model, samples, seed := req.knobs()
	return fmt.Sprintf("avail|%s|model=%s|mc=%d|seed=%d", genKey, model, samples, seed)
}

func (req *availabilityRequest) compute(ctx context.Context, res *core.Result) (any, error) {
	model, samples, seed := req.knobs()
	rep, err := depend.AnalyzeContext(ctx, res, model, samples, seed)
	if err != nil {
		return nil, err
	}
	return availabilityResponse{
		Exact:                rep.Exact,
		RBDApprox:            rep.RBDApprox,
		FTApprox:             rep.FTApprox,
		MonteCarlo:           rep.MonteCarlo,
		MCStdErr:             rep.MCStdErr,
		DowntimePerYearHours: rep.DowntimePerYearHours,
		Components:           rep.Components,
	}, nil
}

// qosRequest asks for the performability/responsiveness analysis.
type qosRequest struct {
	generateRequest
	// MaxHops is the responsiveness hop budget (default 8).
	MaxHops int `json:"maxHops,omitempty"`
}

// qosResponse returns both QoS properties.
type qosResponse struct {
	ThroughputMbps    float64 `json:"throughputMbps"`
	MaxHops           int     `json:"maxHops"`
	Responsiveness    float64 `json:"responsiveness"`
	Availability      float64 `json:"availability"`
	PathsWithinBudget int     `json:"pathsWithinBudget"`
	PathsTotal        int     `json:"pathsTotal"`
}

func (a *api) handleQoS(ctx context.Context, req *qosRequest) (any, error) {
	return a.analyze(ctx, req)
}

func (req *qosRequest) route() string { return "/api/v1/qos" }

// hops resolves the hop budget's default.
func (req *qosRequest) hops() int {
	if req.MaxHops <= 0 {
		return 8
	}
	return req.MaxHops
}

func (req *qosRequest) cacheKey(genKey string) string {
	return fmt.Sprintf("qos|%s|hops=%d", genKey, req.hops())
}

func (req *qosRequest) compute(_ context.Context, res *core.Result) (any, error) {
	tp, err := depend.Throughput(res)
	if err != nil {
		return nil, err
	}
	rr, err := depend.Responsiveness(res, depend.ModelExact, req.hops())
	if err != nil {
		return nil, err
	}
	return qosResponse{
		ThroughputMbps:    tp.Service,
		MaxHops:           rr.MaxHops,
		Responsiveness:    rr.Responsiveness,
		Availability:      rr.Availability,
		PathsWithinBudget: rr.PathsWithinBudget,
		PathsTotal:        rr.PathsTotal,
	}, nil
}

// lintRequest asks for a static-analysis report. Unlike the pipeline routes
// it does not build a generator: NewGeneratorContext pre-validates the model
// and would reject exactly the broken models the linter exists to report on.
// Only modelXml is required; diagram, service and mappingXml widen the rule
// coverage when present.
type lintRequest struct {
	// ModelXML is the model in the library's XML dialect (required).
	ModelXML string `json:"modelXml"`
	// Diagram names the infrastructure object diagram (optional: omit for a
	// model-only lint).
	Diagram string `json:"diagram,omitempty"`
	// Service names an activity of the model (optional).
	Service string `json:"service,omitempty"`
	// MappingXML is the Figure 3 mapping document (optional).
	MappingXML string `json:"mappingXml,omitempty"`
}

// lintResponse wraps the report with the service resolution note (set when
// the named activity exists but cannot be wrapped as a composite service, in
// which case the mapping-coverage rules were skipped).
type lintResponse struct {
	lint.Report
	ServiceError string `json:"serviceError,omitempty"`
}

func handleLint(_ context.Context, req *lintRequest) (any, error) {
	if strings.TrimSpace(req.ModelXML) == "" {
		return nil, errors.New("modelXml is required")
	}
	m, err := uml.DecodeString(req.ModelXML)
	if err != nil {
		return nil, err
	}
	resp := lintResponse{}
	var svc *service.Composite
	if req.Service != "" {
		act, ok := m.Activity(req.Service)
		if !ok {
			return nil, fmt.Errorf("model has no activity %q", req.Service)
		}
		if svc, err = service.FromActivity(act); err != nil {
			resp.ServiceError = err.Error()
			svc = nil
		}
	}
	var mp *mapping.Mapping
	if strings.TrimSpace(req.MappingXML) != "" {
		if mp, err = mapping.ParseString(req.MappingXML); err != nil {
			return nil, err
		}
	}
	in, err := lint.NewInput(m, req.Diagram, svc, mp)
	if err != nil {
		return nil, err
	}
	rep, err := lint.Default().Run(in)
	if err != nil {
		return nil, withStatus(http.StatusInternalServerError, err)
	}
	resp.Report = *rep
	return resp, nil
}

// Explain modes.
const (
	// ExplainModeReport (the default) returns the full provenance &
	// attribution report.
	ExplainModeReport = "report"
	// ExplainModeValidate checks the generation against a current topology
	// and returns the freshness verdict instead.
	ExplainModeValidate = "validate"
)

// explainRequest asks for the provenance & attribution report of a
// generation, or — mode "validate" — for its freshness against a current
// topology.
type explainRequest struct {
	generateRequest
	// Mode selects the report (default) or the validation check.
	Mode string `json:"mode,omitempty"`
	// Top truncates the cut-set and component rankings to the N largest
	// contributors (0 keeps everything; the totals always reflect the full
	// rankings).
	Top int `json:"top,omitempty"`
	// CutLimit overrides the cut-set expansion budget (0 keeps the default).
	CutLimit int `json:"cutLimit,omitempty"`
	// Formula1 selects the paper's approximation for component availability.
	Formula1 bool `json:"formula1,omitempty"`
	// LegacyKernel is accepted and ignored: attribution always runs on the
	// compiled kernel. The field stays so bodies that still send it decode
	// under DisallowUnknownFields and answer the same bytes.
	LegacyKernel bool `json:"legacyKernel,omitempty"`
	// SkipAttribution returns path provenance only (no cut sets or
	// importance measures).
	SkipAttribution bool `json:"skipAttribution,omitempty"`
	// CurrentModelXML is the current topology for mode "validate" (defaults
	// to the request model, which validates trivially fresh).
	CurrentModelXML string `json:"currentModelXml,omitempty"`
	// CurrentDiagram names the current topology diagram (defaults to the
	// request diagram name).
	CurrentDiagram string `json:"currentDiagram,omitempty"`
}

// handleExplain answers mode "report" through the analysis memo and mode
// "validate" with the generation's freshness against the current topology.
func (a *api) handleExplain(ctx context.Context, req *explainRequest) (any, error) {
	res, err := a.generate(ctx, &req.generateRequest)
	if err != nil {
		return nil, err
	}
	switch req.Mode {
	case "", ExplainModeReport:
		return a.memo(ctx, req, res)
	case ExplainModeValidate:
		d, err := req.currentDiagram(req.CurrentModelXML, req.CurrentDiagram)
		if err != nil {
			return nil, err
		}
		val, err := explain.Validate(ctx, res, d)
		if err != nil {
			return nil, unprocessable(err)
		}
		return val, nil
	}
	return nil, fmt.Errorf("unknown mode %q (want %q or %q)", req.Mode, ExplainModeReport, ExplainModeValidate)
}

func (req *explainRequest) route() string { return "/api/v1/explain" }

func (req *explainRequest) cacheKey(genKey string) string {
	return fmt.Sprintf("explain|%s|model=%s|top=%d|cut=%d|skipattr=%t",
		genKey, availabilityModel(req.Formula1), req.Top, req.CutLimit, req.SkipAttribution)
}

func (req *explainRequest) compute(ctx context.Context, res *core.Result) (any, error) {
	return explain.Explain(ctx, res, explain.Options{
		Model:           availabilityModel(req.Formula1),
		TopN:            req.Top,
		CutLimit:        req.CutLimit,
		SkipAttribution: req.SkipAttribution,
	})
}
