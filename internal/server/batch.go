package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"upsim/internal/cache"
	"upsim/internal/core"
)

// MaxBatchItems bounds one POST /api/v1/batch request.
const MaxBatchItems = 256

// Batch operations. An empty op defaults to OpGenerate.
const (
	OpGenerate     = "generate"
	OpAvailability = "availability"
	OpQoS          = "qos"
	OpPaths        = "paths"
)

// BatchItem is one generation-backed request inside a batch. The fields
// mirror the single-request routes: every item carries the model inputs
// (modelXml, diagram); the generate ops additionally take service,
// mappingXml, name and allowDisconnected; the availability knobs (formula1,
// mcSamples, seed) and the qos knob (maxHops) apply only to their
// respective ops; op "paths" takes from/to plus the discovery knobs
// (maxDepth, maxPaths — or k and cost for ranked discovery) and needs no
// service or mapping. LegacyKernel is accepted and ignored, like the
// availability route's field: every analysis runs on the compiled kernel.
// It stays because the benchmark ladder (bench/ladder.go) reads it.
type BatchItem struct {
	Op                string `json:"op,omitempty"`
	ModelXML          string `json:"modelXml"`
	Diagram           string `json:"diagram"`
	Service           string `json:"service,omitempty"`
	MappingXML        string `json:"mappingXml,omitempty"`
	Name              string `json:"name,omitempty"`
	AllowDisconnected bool   `json:"allowDisconnected,omitempty"`
	Formula1          bool   `json:"formula1,omitempty"`
	MCSamples         int    `json:"mcSamples,omitempty"`
	Seed              int64  `json:"seed,omitempty"`
	LegacyKernel      bool   `json:"legacyKernel,omitempty"`
	MaxHops           int    `json:"maxHops,omitempty"`
	From              string `json:"from,omitempty"`
	To                string `json:"to,omitempty"`
	MaxDepth          int    `json:"maxDepth,omitempty"`
	MaxPaths          int    `json:"maxPaths,omitempty"`
	K                 int    `json:"k,omitempty"`
	Cost              string `json:"cost,omitempty"`
}

// BatchRequest is the POST /api/v1/batch body.
type BatchRequest struct {
	// Items are executed concurrently across the worker pool; items with
	// identical generate inputs share one pipeline run through the cache.
	Items []BatchItem `json:"items"`
	// Workers overrides the server's batch pool size for this request
	// (<= 0 keeps the server default).
	Workers int `json:"workers,omitempty"`
}

// BatchResult is the outcome of one item, at the item's index. Exactly one
// of Result and Error is set.
type BatchResult struct {
	Index  int    `json:"index"`
	Op     string `json:"op"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	// Budget carries the structured budget detail when Error reports an
	// analysis or discovery budget overflow — the same shape the single
	// routes return as their 422 body, so a batch client can read kind,
	// need and limit without parsing the error string.
	Budget *budgetErrorResponse `json:"budget,omitempty"`
}

// BatchResponse is the POST /api/v1/batch reply.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// Errors counts failed items (the HTTP status stays 200; per-item
	// failures are data, not transport errors).
	Errors int `json:"errors"`
	// Cache snapshots the shared cache after the batch, so a client can see
	// how much of its fan-out was deduplicated. (A warm-lane replay of an
	// identical batch repeats the snapshot memoised with the response.)
	Cache cache.Stats `json:"cache"`
}

// RunBatch fans req.Items out across a bounded worker pool, routing every
// pipeline run through the shared cache c: items with identical generate
// inputs compute once (concurrent ones via singleflight) and share the
// Result. Results arrive at their item's index, so output order is
// deterministic regardless of pool size. RunBatch is exported for the
// `upsim batch` subcommand, which executes request files in-process against
// its own cache. The items run through the same handlers as the HTTP route,
// on a generator pool of RunBatch's own over c; the warm lane stays off, so
// c's statistics count generation and analysis entries only.
func RunBatch(ctx context.Context, c *cache.Cache, workers int, req *BatchRequest) (*BatchResponse, error) {
	a := &api{cache: c, generators: core.NewGeneratorPool(c, 0, 0), batchWorkers: workers}
	return a.runBatch(ctx, req)
}

// runBatch fans the items out over a.batchWorkers workers (req.Workers
// overrides the bound).
func (a *api) runBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	if len(req.Items) == 0 {
		return nil, fmt.Errorf("batch: items is required")
	}
	if len(req.Items) > MaxBatchItems {
		return nil, fmt.Errorf("batch: %d items exceed the limit of %d", len(req.Items), MaxBatchItems)
	}
	workers := a.batchWorkers
	if req.Workers > 0 {
		workers = req.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Items) {
		workers = len(req.Items)
	}

	results := make([]BatchResult, len(req.Items))
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				results[i] = a.runBatchItem(ctx, i, &req.Items[i])
			}
		}()
	}
	for i := range req.Items {
		tasks <- i
	}
	close(tasks)
	wg.Wait()

	resp := &BatchResponse{Results: results, Cache: a.cache.Stats()}
	for i := range results {
		if results[i].Error != "" {
			resp.Errors++
		}
	}
	return resp, nil
}

// itemWarmKey derives the warm-lane key of one batch item ("" when the
// warm lane is off): a SHA-256 over every field of the item, the op
// normalised so op "" and op "generate" share a key. Strings are hashed
// behind their lengths, so no two items differing in any field share the
// bytes hashed; they stream through a stack buffer instead of being copied
// or re-encoded.
func (a *api) itemWarmKey(op string, it *BatchItem) string {
	if a.warm == nil {
		return ""
	}
	h := sha256.New()
	var buf [512]byte
	str := func(s string) {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s))))
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	num := func(n int64) { h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(n))) }
	flag := func(b bool) {
		buf[0] = 0
		if b {
			buf[0] = 1
		}
		h.Write(buf[:1])
	}
	for _, s := range [...]string{op, it.ModelXML, it.Diagram, it.Service, it.MappingXML, it.Name, it.From, it.To, it.Cost} {
		str(s)
	}
	for _, n := range [...]int64{int64(it.MCSamples), it.Seed, int64(it.MaxHops), int64(it.MaxDepth), int64(it.MaxPaths), int64(it.K)} {
		num(n)
	}
	for _, b := range [...]bool{it.AllowDisconnected, it.Formula1} {
		flag(b)
	}
	var key [len(warmPrefixItem) + 2*sha256.Size]byte
	copy(key[:], warmPrefixItem)
	var sum [sha256.Size]byte
	hex.Encode(key[len(warmPrefixItem):], h.Sum(sum[:0]))
	return string(key[:])
}

// runBatchItem executes one item. A cancelled ctx fails remaining items fast
// (the pipeline itself also honours ctx). Items ride the warm lane like the
// top-level analysis POSTs: a repeated item (keyed by its fields) replays
// its memoised result without generation or analysis, even when the
// surrounding batch differs. A failed item carries the error string and, for
// a budget overflow, the structured detail the single routes answer as
// their 422 body.
func (a *api) runBatchItem(ctx context.Context, i int, it *BatchItem) BatchResult {
	out := BatchResult{Index: i, Op: it.Op}
	if out.Op == "" {
		out.Op = OpGenerate
	}
	if err := ctx.Err(); err != nil {
		out.Error = err.Error()
		return out
	}
	switch out.Op {
	case OpGenerate, OpAvailability, OpQoS, OpPaths:
	default:
		out.Error = fmt.Sprintf("unknown op %q (want %s, %s, %s or %s)", it.Op, OpGenerate, OpAvailability, OpQoS, OpPaths)
		return out
	}
	wkey := a.itemWarmKey(out.Op, it)
	if wkey != "" {
		if v, ok := a.warm.Get(wkey); ok {
			mWarmHits.With("/api/v1/batch").Inc()
			out.Result = v
			return out
		}
	}
	v, err := a.batchItem(ctx, out.Op, it)
	if err != nil {
		out.Error = err.Error()
		out.Budget = budgetBody(err)
		return out
	}
	out.Result = v
	if wkey != "" {
		a.warm.Add(wkey, v)
	}
	return out
}

// batchItem answers one item through the handler of its single route.
func (a *api) batchItem(ctx context.Context, op string, it *BatchItem) (any, error) {
	in := modelInput{ModelXML: it.ModelXML, Diagram: it.Diagram}
	if op == OpPaths {
		return a.handlePaths(ctx, &pathsRequest{
			modelInput: in, From: it.From, To: it.To,
			MaxDepth: it.MaxDepth, MaxPaths: it.MaxPaths, K: it.K, Cost: it.Cost,
		})
	}
	g := generateRequest{
		modelInput:        in,
		Service:           it.Service,
		MappingXML:        it.MappingXML,
		Name:              it.Name,
		AllowDisconnected: it.AllowDisconnected,
	}
	var q analysisRequest
	switch op {
	case OpAvailability:
		q = &availabilityRequest{generateRequest: g, Formula1: it.Formula1,
			MCSamples: it.MCSamples, Seed: it.Seed}
	case OpQoS:
		q = &qosRequest{generateRequest: g, MaxHops: it.MaxHops}
	default:
		return a.handleGenerate(ctx, &g)
	}
	enc, err := a.analyze(ctx, q)
	if err != nil {
		return nil, err
	}
	return enc.value, nil
}

// handleBatch runs the batch and encodes the reply once; respond publishes
// the bytes under the whole-body warm key, so a repeated identical batch
// replays them without decoding or fan-out.
func (a *api) handleBatch(ctx context.Context, req *BatchRequest) (any, error) {
	resp, err := a.runBatch(ctx, req)
	if err != nil {
		return nil, err
	}
	enc, err := encodeResponse("/api/v1/batch", resp)
	if err != nil {
		return nil, withStatus(http.StatusInternalServerError, err)
	}
	return enc, nil
}
