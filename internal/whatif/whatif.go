// Package whatif implements the live-topology what-if engine (DESIGN.md
// §13): failure-impact analysis and first-class topology mutation over a
// set of registered service generations.
//
// The paper evaluates user-perceived properties on a fixed infrastructure;
// production networks churn. The engine owns a mutable topology.Graph and
// one compiled dependability kernel (internal/depend) per registered
// service, and answers two questions without re-running the Steps 5–8
// pipeline:
//
//   - Impact: "component X / link Y fails" → the availability delta for
//     every registered service, computed by forcing the failed components
//     down in each compiled structure (depend.CompiledStructure.WhatIf).
//     Transient — nothing is mutated or invalidated.
//
//   - Apply: "component X / link Y is gone (or added)" → the topology is
//     mutated and the compiled kernels are patched in place, and only the
//     cache entries of affected generations are evicted, found through a
//     reverse index from component/link → registered services. Removals
//     patch (depend patch.go); additions cross the compile-vs-patch
//     boundary — a new node or link can create paths the original
//     discovery never saw — so affected services are marked stale for
//     re-generation instead, and counted separately on /metrics.
//
// Critical-component ranking (Critical) joins size-1/size-2 minimal-cut
// queries on the compiled kernels (depend.SmallCuts — single points of
// failure and fragile pairs) with the Birnbaum and Fussell–Vesely
// importances of the same, possibly patched, kernels.
//
// Invalidate marks registered generations stale on a caller's verdict (the
// HTTP route fingerprints them with explain.Validate against a current
// object diagram) and evicts them from the shared cache, so they do not
// serve results for a topology that no longer exists.
//
// All methods are safe for concurrent use; mutation and analysis are
// serialised behind one mutex because kernel patching is not safe
// concurrently with searches.
package whatif

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"upsim/internal/cache"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/obs"
	"upsim/internal/topology"
)

var (
	mSeconds = obs.NewHistogram("upsim_whatif_seconds",
		"Latency of what-if engine operations.", obs.LatencyBuckets, "op")
	mPatched = obs.NewCounter("upsim_whatif_patch_total",
		"Topology deltas applied to the live graph.", "op")
	mRecompiled = obs.NewCounter("upsim_whatif_recompile_total",
		"Service registrations invalidated for re-generation (compile-vs-patch boundary crossed).")
	mStale = obs.NewCounter("upsim_whatif_stale_generations_total",
		"Registered generations found stale against the current topology and evicted from the cache.")
)

// registered is one service generation under management.
type registered struct {
	name     string
	genKey   string
	res      *core.Result
	cs       *depend.CompiledStructure
	avail    map[string]float64
	baseline float64
	// stale: an addition crossed the patch boundary or Invalidate flagged
	// drift; the service needs re-generation and is excluded from analyses.
	stale       bool
	staleReason string
}

// Engine owns a live topology and the registered service generations
// analysed against it.
type Engine struct {
	mu       sync.Mutex
	graph    *topology.Graph
	cache    *cache.Cache // optional; targeted invalidation when set
	services []*registered
	// rev is the reverse index: component id (node name or link id) →
	// services whose structure references it. Only affected generations
	// invalidate on a delta.
	rev map[string][]*registered
}

// New builds an engine over the given topology. Apply mutates g, so the
// caller hands over a graph it owns. c may be nil; when set, Apply and
// Invalidate evict affected generations from it.
func New(g *topology.Graph, c *cache.Cache) *Engine {
	return &Engine{
		graph: g,
		cache: c,
		rev:   make(map[string][]*registered),
	}
}

// Register adds (or replaces) a service generation. genKey is the
// generation content hash — the root of the cache-key family that
// invalidates when a delta touches this service. The baseline availability
// is computed once, on registration.
func (e *Engine) Register(name, genKey string, res *core.Result, model depend.AvailabilityModel) error {
	_, cs, avail, err := depend.FromResult(res, model)
	if err != nil {
		return fmt.Errorf("whatif: register %q: %w", name, err)
	}
	baseline, err := cs.Exact(avail)
	if err != nil {
		return fmt.Errorf("whatif: register %q: %w", name, err)
	}
	r := &registered{
		name:     name,
		genKey:   genKey,
		res:      res,
		cs:       cs,
		avail:    avail,
		baseline: baseline,
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, old := range e.services {
		if old.name == name {
			e.services = append(e.services[:i], e.services[i+1:]...)
			e.dropFromRev(old)
			break
		}
	}
	e.services = append(e.services, r)
	e.indexService(r)
	return nil
}

// indexService populates the reverse index from the service's discovered
// paths (under e.mu).
func (e *Engine) indexService(r *registered) {
	seen := make(map[string]bool)
	add := func(token string) {
		if !seen[token] {
			seen[token] = true
			e.rev[token] = append(e.rev[token], r)
		}
	}
	for _, sp := range r.res.Services {
		for _, p := range sp.Paths {
			for _, n := range p.Nodes {
				add(n)
			}
			for i, id := range p.Edges {
				add(depend.LinkComponentID(p.Nodes[i], p.Nodes[i+1], id))
			}
		}
	}
}

// dropFromRev removes r from every reverse-index bucket (under e.mu).
func (e *Engine) dropFromRev(r *registered) {
	for token, list := range e.rev {
		for i, x := range list {
			if x == r {
				e.rev[token] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(e.rev[token]) == 0 {
			delete(e.rev, token)
		}
	}
}

// endpointKey canonicalises an (a, b) endpoint pair.
func endpointKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "--" + b
}

// Failure names what fails: components by id (node names, or full
// "a--b#edge" link ids) and links by their endpoints ("a--b", matching
// every parallel edge between the pair).
type Failure struct {
	Components []string `json:"components,omitempty"`
	Links      []string `json:"links,omitempty"`
}

// ServiceDelta is the per-service outcome of an Impact or Apply call.
type ServiceDelta struct {
	Service  string  `json:"service"`
	GenKey   string  `json:"genKey"`
	Baseline float64 `json:"baseline"`
	Failed   float64 `json:"failed"`
	// Delta is Failed − Baseline (≤ 0 for pure failures).
	Delta float64 `json:"delta"`
	// Affected reports whether the failure touches this service's
	// structure at all; unaffected services keep Failed == Baseline.
	Affected bool `json:"affected"`
	// Dead reports that the change left an atomic service with no path
	// sets: the service cannot work at all (Failed is 0).
	Dead bool `json:"dead,omitempty"`
	// RecompileRequired marks a service invalidated by an addition (new
	// paths may exist that in-place patching cannot discover); Failed is
	// meaningless until the service is re-generated and re-registered.
	RecompileRequired bool `json:"recompileRequired,omitempty"`
}

// ImpactReport is the outcome of one transient what-if query.
type ImpactReport struct {
	// Failed lists the resolved failed component ids (nodes and links).
	Failed []string `json:"failed"`
	// Services holds one delta per registered service, in registration
	// order.
	Services []ServiceDelta `json:"services"`
}

// resolve expands a Failure into concrete component ids against the
// current topology (under e.mu).
func (e *Engine) resolve(f Failure) ([]string, error) {
	tokens := append([]string(nil), f.Components...)
	for _, l := range f.Links {
		a, b, ok := strings.Cut(l, "--")
		if !ok {
			return nil, fmt.Errorf("whatif: link %q: want \"a--b\" endpoints or a full \"a--b#edge\" component id", l)
		}
		if strings.Contains(b, "#") {
			// Fully-qualified link id: pass through as a component.
			tokens = append(tokens, l)
			continue
		}
		ids := e.graph.EdgesBetween(a, b)
		if len(ids) == 0 {
			return nil, fmt.Errorf("whatif: no link between %q and %q", a, b)
		}
		for _, id := range ids {
			tokens = append(tokens, depend.LinkComponentID(a, b, id))
		}
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("whatif: empty failure: name at least one component or link")
	}
	return tokens, nil
}

// Impact answers the transient question: if these components/links fail,
// what is the availability delta for every registered service? Nothing is
// mutated and nothing invalidates; the failed availability is computed by
// forcing the components down in each affected compiled structure.
func (e *Engine) Impact(f Failure) (*ImpactReport, error) {
	start := time.Now()
	defer func() { mSeconds.With("impact").Observe(time.Since(start).Seconds()) }()
	e.mu.Lock()
	defer e.mu.Unlock()
	tokens, err := e.resolve(f)
	if err != nil {
		return nil, err
	}
	rep := &ImpactReport{Failed: tokens}
	for _, r := range e.services {
		d, err := r.deltaUnder(tokens)
		if err != nil {
			return nil, fmt.Errorf("whatif: service %q: %w", r.name, err)
		}
		rep.Services = append(rep.Services, d)
	}
	return rep, nil
}

// deltaUnder computes r's availability with the given components forced
// down (transiently; r is not modified).
func (r *registered) deltaUnder(tokens []string) (ServiceDelta, error) {
	d := ServiceDelta{Service: r.name, GenKey: r.genKey, Baseline: r.baseline, Failed: r.baseline}
	if r.stale {
		d.RecompileRequired = true
		return d, nil
	}
	if r.cs.Err() != nil {
		// A prior Apply already killed the structure; any further failure
		// leaves it dead.
		d.Dead = true
		d.Failed = 0
		d.Delta = -r.baseline
		return d, nil
	}
	forced := make(map[string]bool)
	for _, tok := range tokens {
		if r.cs.Has(tok) {
			forced[tok] = false
		}
	}
	if len(forced) == 0 {
		return d, nil
	}
	d.Affected = true
	failed, err := r.cs.WhatIf(r.avail, forced)
	if err != nil {
		return d, err
	}
	d.Failed = failed
	d.Delta = failed - r.baseline
	return d, nil
}

// Op is a topology delta kind.
type Op string

const (
	OpAddNode    Op = "add-node"
	OpRemoveNode Op = "remove-node"
	OpAddLink    Op = "add-link"
	OpRemoveLink Op = "remove-link"
)

// Delta is one topology mutation.
type Delta struct {
	Op Op `json:"op"`
	// Node names the node for OpAddNode/OpRemoveNode; Class is its class
	// for OpAddNode.
	Node  string `json:"node,omitempty"`
	Class string `json:"class,omitempty"`
	// A and B are the link endpoints for OpAddLink/OpRemoveLink. For
	// OpRemoveLink, EdgeID selects one specific parallel edge, which must
	// join A and B; nil removes every edge between the endpoints. Label is
	// the association label for OpAddLink.
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	EdgeID *int   `json:"edgeId,omitempty"`
	Label  string `json:"label,omitempty"`
}

// ApplyReport is the outcome of one permanent topology change.
type ApplyReport struct {
	// Applied describes the deltas in application order.
	Applied []string `json:"applied"`
	// PatchOps counts the graph mutations applied: one per added node or
	// link, one per removed edge, one per removed node.
	PatchOps int `json:"patchOps"`
	// PatchedServices counts compiled structures updated in place.
	PatchedServices int `json:"patchedServices"`
	// RecompileServices counts services invalidated for re-generation
	// (additions crossing the patch boundary).
	RecompileServices int `json:"recompileServices"`
	// InvalidatedKeys counts cache entries evicted — only those whose key
	// embeds an affected generation's content hash.
	InvalidatedKeys int `json:"invalidatedKeys"`
	// AffectedGenerations lists the genKeys whose cache families were
	// evicted.
	AffectedGenerations []string `json:"affectedGenerations,omitempty"`
	// Services holds the post-change deltas (baseline = pre-change).
	Services []ServiceDelta `json:"services"`
}

// Apply permanently mutates the topology. Removals patch every affected
// compiled dependability structure in place; additions mark services
// whose partition gains the new node/link as stale for re-generation (the
// compile-vs-patch decision boundary, DESIGN.md §13). Affected generations — and only those — are
// evicted from the cache.
//
// Apply is not transactional: on error, deltas already applied remain.
func (e *Engine) Apply(deltas ...Delta) (*ApplyReport, error) {
	start := time.Now()
	defer func() { mSeconds.With("apply").Observe(time.Since(start).Seconds()) }()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(deltas) == 0 {
		return nil, fmt.Errorf("whatif: empty delta list")
	}
	rep := &ApplyReport{}
	affected := make(map[*registered]bool)
	for _, d := range deltas {
		desc, err := e.applyOne(d, rep, affected)
		if err != nil {
			return nil, err
		}
		rep.Applied = append(rep.Applied, desc)
	}
	genKeys := make(map[string]bool)
	for r := range affected {
		if r.genKey != "" {
			genKeys[r.genKey] = true
		}
	}
	for k := range genKeys {
		rep.AffectedGenerations = append(rep.AffectedGenerations, k)
	}
	sort.Strings(rep.AffectedGenerations)
	rep.InvalidatedKeys = e.evict(genKeys)
	for _, r := range e.services {
		d := ServiceDelta{Service: r.name, GenKey: r.genKey, Baseline: r.baseline, Failed: r.baseline}
		if r.stale {
			d.RecompileRequired = true
			d.Affected = affected[r]
		} else if affected[r] {
			d.Affected = true
			if r.cs.Err() != nil {
				d.Dead = true
				d.Failed = 0
				d.Delta = -r.baseline
			} else {
				failed, err := r.cs.Exact(r.avail)
				if err != nil {
					return nil, fmt.Errorf("whatif: service %q: %w", r.name, err)
				}
				d.Failed = failed
				d.Delta = failed - r.baseline
			}
		}
		rep.Services = append(rep.Services, d)
	}
	return rep, nil
}

// applyOne applies a single delta (under e.mu), recording patch counts and
// the affected services.
func (e *Engine) applyOne(d Delta, rep *ApplyReport, affected map[*registered]bool) (string, error) {
	patchService := func(token string) {
		for _, r := range e.rev[token] {
			if r.stale {
				affected[r] = true
				continue
			}
			if r.cs.Has(token) {
				if !affected[r] {
					rep.PatchedServices++
				}
				affected[r] = true
				_, _ = r.cs.PatchRemoveComponent(token)
			}
		}
	}
	switch d.Op {
	case OpAddNode:
		if err := e.graph.AddNode(d.Node, d.Class); err != nil {
			return "", err
		}
		rep.PatchOps++
		mPatched.With(string(OpAddNode)).Inc()
		// An isolated node creates no paths; nothing invalidates.
		return fmt.Sprintf("add-node %s:%s", d.Node, d.Class), nil

	case OpAddLink:
		id, err := e.graph.AddEdge(d.A, d.B, d.Label)
		if err != nil {
			return "", err
		}
		rep.PatchOps++
		mPatched.With(string(OpAddLink)).Inc()
		// The patch boundary: a new link can create paths the original
		// discovery never saw, so every service reachable from the new
		// link must re-generate.
		e.markStaleReachable(d.A, fmt.Sprintf("link %s--%s#%d added", d.A, d.B, id), rep, affected)
		return fmt.Sprintf("add-link %s--%s#%d", d.A, d.B, id), nil

	case OpRemoveLink:
		var ids []int
		if d.EdgeID != nil {
			edge, ok := e.graph.Edge(*d.EdgeID)
			if !ok || endpointKey(edge.A, edge.B) != endpointKey(d.A, d.B) {
				return "", fmt.Errorf("whatif: edge %d does not join %q and %q", *d.EdgeID, d.A, d.B)
			}
			ids = []int{*d.EdgeID}
		} else if ids = e.graph.EdgesBetween(d.A, d.B); len(ids) == 0 {
			return "", fmt.Errorf("whatif: no link between %q and %q", d.A, d.B)
		}
		for _, id := range ids {
			edge, _ := e.graph.Edge(id)
			if err := e.graph.RemoveEdge(id); err != nil {
				return "", err
			}
			rep.PatchOps++
			mPatched.With(string(OpRemoveLink)).Inc()
			patchService(depend.LinkComponentID(edge.A, edge.B, id))
		}
		return fmt.Sprintf("remove-link %s (%d edge(s))", endpointKey(d.A, d.B), len(ids)), nil

	case OpRemoveNode:
		// Collect the incident link components before the graph forgets
		// them.
		var linkTokens []string
		for _, id := range append([]int(nil), e.graph.IncidentEdges(d.Node)...) {
			if edge, ok := e.graph.Edge(id); ok {
				linkTokens = append(linkTokens, depend.LinkComponentID(edge.A, edge.B, id))
			}
		}
		if err := e.graph.RemoveNode(d.Node); err != nil {
			return "", err
		}
		rep.PatchOps++
		mPatched.With(string(OpRemoveNode)).Inc()
		patchService(d.Node)
		for _, tok := range linkTokens {
			patchService(tok)
		}
		return "remove-node " + d.Node, nil
	}
	return "", fmt.Errorf("whatif: unknown op %q", d.Op)
}

// markStaleReachable marks every non-stale service with a requester or
// provider reachable from start as needing re-generation (under e.mu).
func (e *Engine) markStaleReachable(start, reason string, rep *ApplyReport, affected map[*registered]bool) {
	reach := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range e.graph.IncidentEdges(n) {
			if edge, ok := e.graph.Edge(id); ok {
				if o := edge.Other(n); !reach[o] {
					reach[o] = true
					stack = append(stack, o)
				}
			}
		}
	}
	for _, r := range e.services {
		if r.stale {
			continue
		}
		hit := false
		for _, sp := range r.res.Services {
			if reach[sp.Requester] || reach[sp.Provider] {
				hit = true
				break
			}
		}
		if hit {
			r.stale = true
			r.staleReason = reason
			affected[r] = true
			rep.RecompileServices++
			mRecompiled.With().Inc()
		}
	}
}

// Invalidate marks the named registrations stale, for the given reason:
// their generations no longer describe the live topology, so analyses skip
// them until they are re-registered. Their cache-key families are evicted;
// Invalidate returns the number of cache entries evicted. Names that are
// not registered are ignored.
func (e *Engine) Invalidate(reason string, services ...string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	genKeys := make(map[string]bool)
	for _, r := range e.services {
		if !slices.Contains(services, r.name) {
			continue
		}
		r.stale = true
		r.staleReason = reason
		if r.genKey != "" {
			genKeys[r.genKey] = true
		}
		mStale.With().Inc()
	}
	return e.evict(genKeys)
}

// evict removes exactly the given generations' cache-key families — the
// genKey itself plus every derived "…|<genKey>|…" analysis and
// response-bytes entry — and returns the number of entries removed (under
// e.mu).
func (e *Engine) evict(genKeys map[string]bool) int {
	if e.cache == nil || len(genKeys) == 0 {
		return 0
	}
	return e.cache.RemoveMatching(func(key string) bool {
		for k := range genKeys {
			if strings.Contains(key, k) {
				return true
			}
		}
		return false
	})
}

// CriticalComponent is one entry of the critical-component ranking.
type CriticalComponent struct {
	Component string `json:"component"`
	Class     string `json:"class,omitempty"`
	// Services lists the registered services for which the component is
	// part of a size-1 or size-2 minimal cut.
	Services []string `json:"services"`
	// SinglePointOfFailure: the component alone is a minimal cut for at
	// least one service.
	SinglePointOfFailure bool `json:"singlePointOfFailure"`
	// PairCuts counts the size-2 minimal cuts the component appears in,
	// summed over services.
	PairCuts int `json:"pairCuts"`
	// Birnbaum and FussellVesely are the maxima over the services'
	// importance measures on their live kernels.
	Birnbaum      float64 `json:"birnbaum"`
	FussellVesely float64 `json:"fussellVesely"`
}

// Critical ranks components by how close they are to taking a registered
// service down: single points of failure first (size-1 minimal cuts on the
// compiled kernel), then members of size-2 cuts, tie-broken by Birnbaum
// importance. Cuts and importances both come from each service's kernel as
// patched by Apply. top bounds the result (0 keeps everything).
func (e *Engine) Critical(top int) ([]CriticalComponent, error) {
	start := time.Now()
	defer func() { mSeconds.With("critical").Observe(time.Since(start).Seconds()) }()
	e.mu.Lock()
	defer e.mu.Unlock()
	byComp := make(map[string]*CriticalComponent)
	get := func(name string) *CriticalComponent {
		cc, ok := byComp[name]
		if !ok {
			cc = &CriticalComponent{Component: name}
			byComp[name] = cc
		}
		return cc
	}
	for _, r := range e.services {
		if r.stale || r.cs.Err() != nil {
			continue
		}
		cuts, err := r.cs.SmallCuts(2)
		if err != nil {
			return nil, fmt.Errorf("whatif: service %q: %w", r.name, err)
		}
		inService := make(map[string]bool)
		for _, cut := range cuts {
			for _, c := range cut {
				cc := get(c)
				if len(cut) == 1 {
					cc.SinglePointOfFailure = true
				} else {
					cc.PairCuts++
				}
				if !inService[c] {
					inService[c] = true
					cc.Services = append(cc.Services, r.name)
				}
			}
		}
		if len(inService) == 0 {
			continue
		}
		if err := r.joinImportances(byComp, inService); err != nil {
			return nil, fmt.Errorf("whatif: service %q: %w", r.name, err)
		}
	}
	out := make([]CriticalComponent, 0, len(byComp))
	for _, cc := range byComp {
		out = append(out, *cc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.SinglePointOfFailure != b.SinglePointOfFailure {
			return a.SinglePointOfFailure
		}
		if a.PairCuts != b.PairCuts {
			return a.PairCuts > b.PairCuts
		}
		if a.Birnbaum != b.Birnbaum {
			return a.Birnbaum > b.Birnbaum
		}
		return a.Component < b.Component
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out, nil
}

// joinImportances raises the Birnbaum and Fussell–Vesely entries of the
// service's cut members in byComp to r's measures on its current kernel,
// and names the class of members that have none yet.
func (r *registered) joinImportances(byComp map[string]*CriticalComponent, inService map[string]bool) error {
	base, err := r.cs.Exact(r.avail)
	if err != nil {
		return err
	}
	birnbaum, fussellVesely, err := r.cs.BirnbaumFussellVesely(r.avail, base)
	if err != nil {
		return err
	}
	for i, c := range r.cs.Components() {
		if !inService[c] {
			continue
		}
		cc := byComp[c]
		cc.Birnbaum = max(cc.Birnbaum, birnbaum[i])
		cc.FussellVesely = max(cc.FussellVesely, fussellVesely[i])
		if cc.Class == "" {
			if cc.Class, _, _, err = depend.ComponentSource(r.res.Source, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Services returns the registered service names in registration order,
// with staleness flags.
func (e *Engine) Services() []ServiceStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ServiceStatus, 0, len(e.services))
	for _, r := range e.services {
		out = append(out, ServiceStatus{
			Service:     r.name,
			GenKey:      r.genKey,
			Baseline:    r.baseline,
			Stale:       r.stale,
			StaleReason: r.staleReason,
		})
	}
	return out
}

// ServiceStatus is one registered service's management view.
type ServiceStatus struct {
	Service     string  `json:"service"`
	GenKey      string  `json:"genKey"`
	Baseline    float64 `json:"baseline"`
	Stale       bool    `json:"stale,omitempty"`
	StaleReason string  `json:"staleReason,omitempty"`
}
