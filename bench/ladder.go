package main

// The ladder serves a request through the same public layer calls
// internal/server's handlers make, in the same order and against the same
// cache tiers (generation cache, warm lane, generator pool), with one
// bench-side obs span around each call. The layers' own spans
// (step5.import_uml, step6/7/8, avail.*, explain.*) attach beneath them, so
// a request's span tree splits its time by layer without any tracing inside
// the program. The ladder's replies must equal the handler's byte for byte.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"upsim/internal/cache"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/explain"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/server"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// Handler constants the ladder mirrors.
const (
	pathsHardLimit = 1 << 20
	pathsWorkLimit = 1 << 26
	warmItemPrefix = "warm|item|"
)

var warmPrefixes = map[string]string{
	routeAvailability: "warm|avail|",
	routeQoS:          "warm|qos|",
	routeExplain:      "warm|explain|",
	routeBatch:        "warm|batch|",
}

// ladder holds the cache tiers a server.Config{} handler owns.
type ladder struct {
	c    *cache.Cache // generation and analysis results
	warm *cache.Cache // warm-lane replies and batch items
	pool *core.GeneratorPool
	// priming makes every generator go through the pool, so the models the
	// priming pass touches stay warm for the timed requests.
	priming bool
	// The body, warm key and reply buffers are reused across requests, as the
	// handler's pooled warm-lane buffers and the connection's write buffer
	// are. A reply is valid until the next serve.
	buf, key, out []byte
}

func newLadder() *ladder {
	c := cache.New(0)
	return &ladder{c: c, warm: cache.New(0), pool: core.NewGeneratorPool(c, 0, 0)}
}

// encoded is an analysis reply and its JSON bytes, as the analysis cache
// holds them.
type encoded struct {
	value any
	body  []byte
}

// serve answers one request body on a route.
func (l *ladder) serve(ctx context.Context, route string, body []byte) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, "server.body_read")
	l.buf = append(l.buf[:0], body...)
	buf := l.buf
	sp.End()
	if route == routePaths {
		return l.paths(ctx, buf)
	}

	_, sp = obs.StartSpan(ctx, "server.body_hash")
	sum := sha256.Sum256(buf)
	l.key = hex.AppendEncode(append(l.key[:0], warmPrefixes[route]...), sum[:])
	key := l.key
	sp.End()
	_, sp = obs.StartSpan(ctx, "cache.get")
	v, hit := l.warm.GetBytes(key)
	sp.End()
	if hit {
		return l.write(ctx, v.(*encoded).body), nil
	}

	var (
		out *encoded
		err error
	)
	switch route {
	case routeAvailability:
		var req availabilityRequest
		if err := decodeStrict(ctx, buf, &req); err != nil {
			return nil, err
		}
		res, genKey, gerr := l.generate(ctx, &req.generateRequest)
		if gerr != nil {
			return nil, gerr
		}
		out, err = l.availability(ctx, genKey, res, &req)
	case routeQoS:
		var req qosRequest
		if err := decodeStrict(ctx, buf, &req); err != nil {
			return nil, err
		}
		res, genKey, gerr := l.generate(ctx, &req.generateRequest)
		if gerr != nil {
			return nil, gerr
		}
		out, err = l.qos(ctx, genKey, res, req.MaxHops)
	case routeExplain:
		var req explainRequest
		if err := decodeStrict(ctx, buf, &req); err != nil {
			return nil, err
		}
		if req.Mode != "" && req.Mode != server.ExplainModeReport {
			return nil, fmt.Errorf("ladder serves explain mode %q only", server.ExplainModeReport)
		}
		res, genKey, gerr := l.generate(ctx, &req.generateRequest)
		if gerr != nil {
			return nil, gerr
		}
		out, err = l.explain(ctx, genKey, res, &req)
	case routeBatch:
		out, err = l.batch(ctx, buf)
	default:
		return nil, fmt.Errorf("ladder has no route %s", route)
	}
	if err != nil {
		return nil, err
	}
	// The handler writes the reply, then publishes it under the warm key.
	reply := l.write(ctx, out.body)
	_, sp = obs.StartSpan(ctx, "cache.put")
	l.warm.Add(string(key), out)
	sp.End()
	return reply, nil
}

// write copies the reply into the reused reply buffer, as the connection's
// buffered writer would.
func (l *ladder) write(ctx context.Context, body []byte) []byte {
	_, sp := obs.StartSpan(ctx, "server.write")
	defer sp.End()
	l.out = append(l.out[:0], body...)
	return l.out
}

// decodeStrict is the handlers' strict JSON decode.
func decodeStrict(ctx context.Context, buf []byte, v any) error {
	_, sp := obs.StartSpan(ctx, "server.decode")
	defer sp.End()
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// marshal is the handlers' encode: json.Marshal plus the newline
// json.Encoder appends.
func marshal(ctx context.Context, v any) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, "server.encode")
	defer sp.End()
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func validateModel(in *modelInput) error {
	if strings.TrimSpace(in.ModelXML) == "" {
		return fmt.Errorf("modelXml is required")
	}
	if in.Diagram == "" {
		return fmt.Errorf("diagram is required")
	}
	return nil
}

// acquire takes a generator from the pool. A model with no idle generator
// is built here stage by stage — XML decode, Step 5 import, model digest —
// which is the work GeneratorPool.Acquire does on a miss; the pool check
// itself hashes the model XML, as Acquire does first.
func (l *ladder) acquire(ctx context.Context, in *modelInput) (*core.Generator, error) {
	if err := validateModel(in); err != nil {
		return nil, err
	}
	actx, sp := obs.StartSpan(ctx, "core.pool_acquire")
	if l.priming || l.pool.IdleLen(in.ModelXML, in.Diagram) > 0 {
		defer sp.End()
		return l.pool.Acquire(actx, in.ModelXML, in.Diagram)
	}
	sp.End()
	_, sp = obs.StartSpan(ctx, "uml.decode")
	m, err := uml.Decode(strings.NewReader(in.ModelXML))
	sp.End()
	if err != nil {
		return nil, err
	}
	sctx, sp := obs.StartSpan(ctx, "core.step5")
	gen, err := core.NewGeneratorContext(sctx, m, in.Diagram)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "core.model_digest")
	gen.WithCache(l.c)
	sp.End()
	return gen, nil
}

// release returns the generator; its span shares the acquire stage's name,
// so the stage is the pool's whole cost per request.
func (l *ladder) release(ctx context.Context, gen *core.Generator) {
	_, sp := obs.StartSpan(ctx, "core.pool_acquire")
	l.pool.Release(gen)
	sp.End()
}

// generate is the handlers' Steps 6–8 path through the generation cache.
// As in the handler, the generator goes back to the pool before the
// analysis runs.
func (l *ladder) generate(ctx context.Context, req *generateRequest) (*core.Result, string, error) {
	gen, err := l.acquire(ctx, &req.modelInput)
	if err != nil {
		return nil, "", err
	}
	defer l.release(ctx, gen)

	_, sp := obs.StartSpan(ctx, "service.from_activity")
	act, ok := gen.Model().Activity(req.Service)
	if !ok {
		sp.End()
		return nil, "", fmt.Errorf("model has no activity %q", req.Service)
	}
	svc, err := service.FromActivity(act)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	_, sp = obs.StartSpan(ctx, "mapping.parse")
	mp, err := mapping.Parse(strings.NewReader(req.MappingXML))
	sp.End()
	if err != nil {
		return nil, "", err
	}
	name := req.Name
	if name == "" {
		name = "upsim"
	}
	opts := core.Options{AllowDisconnected: req.AllowDisconnected}
	_, sp = obs.StartSpan(ctx, "core.cache_key")
	key, err := gen.CacheKey(svc, mp, name, opts)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	gctx, sp := obs.StartSpan(ctx, "core.generate")
	res, err := gen.WithCache(l.c).GenerateContext(gctx, svc, mp, name, opts)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	return res, key, nil
}

// analysis runs compute through the analysis cache under key and encodes
// the reply once, as the handlers do.
func (l *ladder) analysis(ctx context.Context, key string, compute func(context.Context) (any, error)) (*encoded, error) {
	cctx, sp := obs.StartSpan(ctx, "cache.analysis")
	defer sp.End()
	v, _, err := l.c.Do(cctx, key, func() (any, error) {
		val, err := compute(cctx)
		if err != nil {
			return nil, err
		}
		body, err := marshal(cctx, val)
		if err != nil {
			return nil, err
		}
		return &encoded{value: val, body: body}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*encoded), nil
}

func availabilityModel(formula1 bool) depend.AvailabilityModel {
	if formula1 {
		return depend.ModelFormula1
	}
	return depend.ModelExact
}

func (l *ladder) availability(ctx context.Context, genKey string, res *core.Result, req *availabilityRequest) (*encoded, error) {
	model := availabilityModel(req.Formula1)
	samples, seed := req.MCSamples, req.Seed
	if samples <= 0 {
		samples = 100000
	}
	if seed == 0 {
		seed = 1
	}
	key := fmt.Sprintf("avail|%s|model=%s|mc=%d|seed=%d|legacy=%t", genKey, model, samples, seed, req.LegacyKernel)
	return l.analysis(ctx, key, func(ctx context.Context) (any, error) {
		dctx, sp := obs.StartSpan(ctx, "depend.analyze")
		defer sp.End()
		rep, err := depend.AnalyzeWithOptions(dctx, res, model, samples, seed,
			depend.AnalyzeOptions{Legacy: req.LegacyKernel})
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
	})
}

func (l *ladder) qos(ctx context.Context, genKey string, res *core.Result, maxHops int) (*encoded, error) {
	if maxHops <= 0 {
		maxHops = 8
	}
	key := fmt.Sprintf("qos|%s|hops=%d", genKey, maxHops)
	return l.analysis(ctx, key, func(ctx context.Context) (any, error) {
		_, sp := obs.StartSpan(ctx, "depend.qos")
		defer sp.End()
		tp, err := depend.Throughput(res)
		if err != nil {
			return nil, err
		}
		rr, err := depend.Responsiveness(res, depend.ModelExact, maxHops)
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
	})
}

func (l *ladder) explain(ctx context.Context, genKey string, res *core.Result, req *explainRequest) (*encoded, error) {
	model := availabilityModel(req.Formula1)
	key := fmt.Sprintf("explain|%s|model=%s|top=%d|cut=%d|legacy=%t|skipattr=%t",
		genKey, model, req.Top, req.CutLimit, req.LegacyKernel, req.SkipAttribution)
	return l.analysis(ctx, key, func(ctx context.Context) (any, error) {
		ectx, sp := obs.StartSpan(ctx, "explain.explain")
		defer sp.End()
		return explain.Explain(ectx, res, explain.Options{
			Legacy:          req.LegacyKernel,
			Model:           model,
			TopN:            req.Top,
			CutLimit:        req.CutLimit,
			SkipAttribution: req.SkipAttribution,
		})
	})
}

// paths is POST /api/v1/paths, which has no warm lane. The generator is
// released after the reply is written.
func (l *ladder) paths(ctx context.Context, buf []byte) ([]byte, error) {
	var req pathsRequest
	if err := decodeStrict(ctx, buf, &req); err != nil {
		return nil, err
	}
	gen, err := l.acquire(ctx, &req.modelInput)
	if err != nil {
		return nil, err
	}
	defer l.release(ctx, gen)
	resp, err := computePaths(ctx, gen, &req)
	if err != nil {
		return nil, err
	}
	body, err := marshal(ctx, resp)
	if err != nil {
		return nil, err
	}
	return l.write(ctx, body), nil
}

// computePaths is the handlers' full or ranked discovery on an acquired
// generator.
func computePaths(ctx context.Context, gen *core.Generator, req *pathsRequest) (*pathsResponse, error) {
	metric, err := pathdisc.ParseCostMetric(req.Cost)
	if err != nil {
		return nil, err
	}
	c := gen.Compiled()
	var (
		paths []pathdisc.Path
		stats pathdisc.Stats
		sp    *obs.Span
	)
	if req.K > 0 {
		_, sp = obs.StartSpan(ctx, "pathdisc.kshortest")
		paths, stats, err = c.KShortest(req.From, req.To,
			pathdisc.Options{K: req.K, CostMetric: metric, MaxWork: pathsWorkLimit})
	} else {
		_, sp = obs.StartSpan(ctx, "pathdisc.allpaths")
		paths, stats, err = c.AllPaths(req.From, req.To,
			pathdisc.Options{MaxDepth: req.MaxDepth, MaxPaths: req.MaxPaths, HardMaxPaths: pathsHardLimit})
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "server.paths_response")
	defer sp.End()
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
		var links []*uml.Link
		if d, ok := gen.Model().Diagram(req.Diagram); ok {
			links = d.Links()
		}
		for _, p := range paths {
			_, bottleneck, channels := explain.PathMetrics(links, p)
			resp.Ranked = append(resp.Ranked, rankedPathJSON{
				Path:           p.String(),
				Hops:           p.Len(),
				Cost:           c.PathCost(metric, p),
				BottleneckMbps: bottleneck,
				Channels:       channels,
			})
		}
	}
	return resp, nil
}

// batch is POST /api/v1/batch with one worker: the items run in order.
func (l *ladder) batch(ctx context.Context, buf []byte) (*encoded, error) {
	var req server.BatchRequest
	if err := decodeStrict(ctx, buf, &req); err != nil {
		return nil, err
	}
	if len(req.Items) == 0 || len(req.Items) > server.MaxBatchItems {
		return nil, fmt.Errorf("batch of %d items", len(req.Items))
	}
	resp := &server.BatchResponse{Results: make([]server.BatchResult, len(req.Items))}
	for i := range req.Items {
		resp.Results[i] = l.batchItem(ctx, i, &req.Items[i])
		if resp.Results[i].Error != "" {
			resp.Errors++
		}
	}
	resp.Cache = l.c.Stats()
	body, err := marshal(ctx, resp)
	if err != nil {
		return nil, err
	}
	return &encoded{value: resp, body: body}, nil
}

// batchItem runs one item through the item warm lane, then generation and
// analysis.
func (l *ladder) batchItem(ctx context.Context, i int, it *server.BatchItem) server.BatchResult {
	out := server.BatchResult{Index: i, Op: it.Op}
	if out.Op == "" {
		out.Op = server.OpGenerate
	}
	fail := func(err error) server.BatchResult {
		out.Error = err.Error()
		return out
	}
	switch out.Op {
	case server.OpGenerate, server.OpAvailability, server.OpQoS, server.OpPaths:
	default:
		return fail(fmt.Errorf("unknown op %q", it.Op))
	}
	_, sp := obs.StartSpan(ctx, "server.item_key")
	b, err := json.Marshal(it)
	if err != nil {
		sp.End()
		return fail(err)
	}
	sum := sha256.Sum256(b)
	wkey := warmItemPrefix + hex.EncodeToString(sum[:])
	sp.End()
	_, sp = obs.StartSpan(ctx, "cache.get")
	v, hit := l.warm.Get(wkey)
	sp.End()
	if hit {
		out.Result = v
		return out
	}

	if out.Op == server.OpPaths {
		in := modelInput{ModelXML: it.ModelXML, Diagram: it.Diagram}
		gen, err := l.acquire(ctx, &in)
		if err != nil {
			return fail(err)
		}
		defer l.release(ctx, gen)
		resp, err := computePaths(ctx, gen, &pathsRequest{
			modelInput: in, From: it.From, To: it.To,
			MaxDepth: it.MaxDepth, MaxPaths: it.MaxPaths, K: it.K, Cost: it.Cost,
		})
		if err != nil {
			return fail(err)
		}
		out.Result = resp
		l.putItem(ctx, wkey, resp)
		return out
	}
	greq := &generateRequest{
		modelInput:        modelInput{ModelXML: it.ModelXML, Diagram: it.Diagram},
		Service:           it.Service,
		MappingXML:        it.MappingXML,
		Name:              it.Name,
		AllowDisconnected: it.AllowDisconnected,
	}
	res, genKey, err := l.generate(ctx, greq)
	if err != nil {
		return fail(err)
	}
	switch out.Op {
	case server.OpGenerate:
		_, sp := obs.StartSpan(ctx, "server.generate_response")
		out.Result = buildGenerateResponse(res)
		sp.End()
	case server.OpAvailability:
		enc, err := l.availability(ctx, genKey, res, &availabilityRequest{
			generateRequest: *greq, Formula1: it.Formula1, MCSamples: it.MCSamples,
			Seed: it.Seed, LegacyKernel: it.LegacyKernel,
		})
		if err != nil {
			return fail(err)
		}
		out.Result = enc.value
	case server.OpQoS:
		enc, err := l.qos(ctx, genKey, res, it.MaxHops)
		if err != nil {
			return fail(err)
		}
		out.Result = enc.value
	}
	l.putItem(ctx, wkey, out.Result)
	return out
}

func (l *ladder) putItem(ctx context.Context, key string, v any) {
	_, sp := obs.StartSpan(ctx, "cache.put")
	l.warm.Add(key, v)
	sp.End()
}

// buildGenerateResponse renders a pipeline Result as the generate reply.
func buildGenerateResponse(res *core.Result) generateResponse {
	resp := generateResponse{
		Name:       res.Name,
		Nodes:      res.NodeNames(),
		Paths:      make(map[string][]string, len(res.Services)),
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
