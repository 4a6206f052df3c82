// Package explain is the provenance and attribution layer over the UPSIM
// pipeline: it answers *why* a generated user-perceived model has the
// numbers it has. The paper's whole premise is that a UPSIM names the
// infrastructure one (requester, provider) pair actually depends on; this
// package turns that into three operational surfaces:
//
//   - Path provenance & statistics: per-path records (hop sequence, length,
//     direct vs. transitive type, per-class component breakdown, edge cost
//     from the Communication stereotype's throughput/channel attributes),
//     per-service aggregates (count, min/max/mean length, depth histogram)
//     and a discovery tree rooted at the requester (the kubecore
//     PathTracker shape).
//   - Availability attribution: minimal cut sets ranked by their
//     contribution to the service unavailability, components ranked by the
//     Birnbaum and Fussell–Vesely importance measures, joined with the
//     class-level sensitivity report — "why is this service's availability
//     low" in one call.
//   - UPSIM validation: check a cached generation against the current
//     topology (every path node and link still present, stereotype values
//     unchanged) and report stale entries with the reason (validate.go).
//     The what-if engine (internal/whatif) uses these fingerprints as its
//     freshness gate: a stale verdict evicts the generation's cached
//     response family and fails POST /api/v1/whatif with a structured 409.
//
// Attribution runs on the compiled dependability kernel; the kernel-parity
// test pins it against the ServiceStructure methods called directly, and
// internal/depend pins those to its map-based oracle. Everything is
// exported through the upsim facade (upsim.Explain) and served as
// POST /api/v1/explain and the `upsim explain` subcommand.
package explain

import (
	"context"
	"fmt"
	"sort"
	"time"

	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/jsonenc"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/uml"
)

// Explain metrics: report assembly latency by mode, the path-type
// split, and the hop-depth distribution of every path the provenance layer
// classifies. Exposed on GET /metrics next to the pathdisc and depend
// families.
var (
	mExplainSeconds = obs.NewHistogram("upsim_explain_seconds",
		"Wall time of explain report assembly.",
		obs.LatencyBuckets, "mode")
	mExplainPaths = obs.NewCounter("upsim_explain_paths_total",
		"Paths classified by the provenance layer, by path type.", "type")
	mExplainDepth = obs.NewHistogram("upsim_explain_path_depth",
		"Hop count of paths classified by the provenance layer.",
		obs.ExpBuckets(1, 2, 10))
)

// Path types: a direct path is a single hop from requester to provider; a
// transitive path crosses intermediate infrastructure.
const (
	PathDirect     = "direct"
	PathTransitive = "transitive"
)

// Options tunes an Explain run.
type Options struct {
	// Legacy is ignored: attribution always runs on the compiled kernel.
	//
	// Deprecated: it remains only because the benchmark ladder
	// (bench/ladder.go) sets it.
	Legacy bool
	// Model selects the component availability model (default ModelExact).
	Model depend.AvailabilityModel
	// TopN truncates the ranked cut-set and component lists to the N
	// largest contributors (0 keeps everything). The totals before
	// truncation stay in the report.
	TopN int
	// CutLimit bounds the minimal-cut-set expansion
	// (0 = depend.DefaultSetLimit). Exhaustion surfaces as a
	// depend.BudgetError naming the offending atomic service.
	CutLimit int
	// SkipAttribution omits the availability attribution (cut sets,
	// importance measures, class sensitivities) and returns path provenance
	// only — the cheap mode behind the pathStats response fields.
	SkipAttribution bool
}

// PathRecord is the provenance of one discovered path.
type PathRecord struct {
	// Index is the path's position in the atomic service's enumeration
	// order (the deterministic DFS order both kernels share).
	Index int `json:"index"`
	// Nodes is the hop sequence from requester to provider.
	Nodes []string `json:"nodes"`
	// Length is the hop (edge) count.
	Length int `json:"length"`
	// Type is PathDirect for single-hop paths, PathTransitive otherwise.
	Type string `json:"type"`
	// Cost is the sum of per-edge costs, where an edge with a positive
	// throughput attribute costs 1/throughput and any other edge costs 1 —
	// a cheap latency proxy derived from the Communication stereotype.
	Cost float64 `json:"cost"`
	// BottleneckMbps is the smallest throughput attribute along the path
	// (0 when no traversed link carries one).
	BottleneckMbps float64 `json:"bottleneckMbps"`
	// Channels lists the distinct channel attribute values along the path,
	// in first-traversed order.
	Channels []string `json:"channels,omitempty"`
	// Classes counts the path's nodes by class name.
	Classes Counts `json:"classes"`
	// Links counts the path's links by association name.
	Links Counts `json:"links,omitempty"`
}

// Counts is a count per name. It encodes to the JSON encoding/json writes
// for a map[string]int, without reflection.
type Counts map[string]int

// MarshalJSON implements json.Marshaler.
func (c Counts) MarshalJSON() ([]byte, error) {
	// Braces, then per entry the key, two quotes, a colon, a comma and at
	// most 20 digits: the exact bound unless a key needs escaping.
	n := 2
	for k := range c {
		n += len(k) + 24
	}
	return jsonenc.AppendMap(make([]byte, 0, n), c, jsonenc.AppendInt), nil
}

// PathStatistics aggregates path-length statistics over one path set.
type PathStatistics struct {
	Count      int     `json:"count"`
	MinLength  int     `json:"minLength"`
	MaxLength  int     `json:"maxLength"`
	MeanLength float64 `json:"meanLength"`
	// Direct and Transitive split Count by path type.
	Direct     int `json:"direct"`
	Transitive int `json:"transitive"`
	// DepthHistogram counts paths by hop count.
	DepthHistogram Histogram `json:"depthHistogram,omitempty"`
}

// Histogram is a count per int key. It encodes to the JSON encoding/json
// writes for a map[int]int, without reflection.
type Histogram map[int]int

// MarshalJSON implements json.Marshaler.
func (h Histogram) MarshalJSON() ([]byte, error) {
	// Braces, then per entry two quotes, a colon, a comma and at most 20
	// digits each for the key and the count.
	return jsonenc.AppendIntMap(make([]byte, 0, 2+44*len(h)), h), nil
}

// Statistics computes the aggregate path statistics of one path set.
func Statistics(paths []pathdisc.Path) PathStatistics {
	st := PathStatistics{Count: len(paths)}
	if len(paths) == 0 {
		return st
	}
	st.DepthHistogram = make(Histogram)
	total := 0
	for i, p := range paths {
		n := p.Len()
		if i == 0 || n < st.MinLength {
			st.MinLength = n
		}
		if n > st.MaxLength {
			st.MaxLength = n
		}
		total += n
		st.DepthHistogram[n]++
		if n <= 1 {
			st.Direct++
		} else {
			st.Transitive++
		}
	}
	st.MeanLength = float64(total) / float64(len(paths))
	return st
}

// ServiceProvenance is the path provenance of one atomic service.
type ServiceProvenance struct {
	AtomicService string         `json:"atomicService"`
	Requester     string         `json:"requester"`
	Provider      string         `json:"provider"`
	Paths         []PathRecord   `json:"paths"`
	Stats         PathStatistics `json:"stats"`
	// Tree is the discovery tree rooted at the requester: the prefix-merged
	// view of every discovered path.
	Tree *TreeNode `json:"tree,omitempty"`
	// Truncated mirrors the discovery Stats: the enumeration stopped at
	// MaxPaths, so the provenance below is a prefix of the full path set.
	Truncated bool `json:"truncated,omitempty"`
}

// CutSetRecord is one minimal cut set ranked by its contribution to the
// service unavailability.
type CutSetRecord struct {
	// Components is the cut set in canonical (sorted) component order.
	Components []string `json:"components"`
	// Unavailability is the probability that every component of the cut is
	// down at once, Π(1−A_c) — the rare-event weight of this cut.
	Unavailability float64 `json:"unavailability"`
	// Share normalises Unavailability over all minimal cut sets; the
	// shares sum to 1 and order the "which failure combination dominates"
	// answer.
	Share float64 `json:"share"`
}

// ComponentImportance ranks one component by the classical importance
// measures.
type ComponentImportance struct {
	// Component is the structure component id (instance name, or the
	// synthetic "a--b#edge" id for links).
	Component string `json:"component"`
	// Class is the component's class (devices) or association (links) name.
	Class string `json:"class"`
	// Availability is the component's steady-state availability.
	Availability float64 `json:"availability"`
	// Birnbaum is ∂A_service/∂A_component.
	Birnbaum float64 `json:"birnbaum"`
	// FussellVesely is the fraction of the service unavailability
	// attributable to failures involving the component.
	FussellVesely float64 `json:"fussellVesely"`
}

// ClassRecord is the class-level sensitivity record (depend.Sensitivity)
// in response form.
type ClassRecord struct {
	Class       string  `json:"class"`
	Instances   int     `json:"instances"`
	DAvailDMTBF float64 `json:"dAvailDMtbf"`
	DAvailDMTTR float64 `json:"dAvailDMttr"`
}

// Attribution is the availability attribution of one UPSIM.
type Attribution struct {
	// Availability is the exact user-perceived service availability.
	Availability float64 `json:"availability"`
	// Unavailability is 1 − Availability.
	Unavailability float64 `json:"unavailability"`
	// CutSets ranks the minimal cut sets by Share (TopN applies);
	// CutSetsTotal counts them before truncation.
	CutSets      []CutSetRecord `json:"cutSets"`
	CutSetsTotal int            `json:"cutSetsTotal"`
	// Components ranks every structure component by Birnbaum importance
	// (TopN applies); ComponentsTotal counts them before truncation.
	Components      []ComponentImportance `json:"components"`
	ComponentsTotal int                   `json:"componentsTotal"`
	// Classes is the class-level sensitivity ranking (all classes).
	Classes []ClassRecord `json:"classes"`
}

// Report is the full explain output for one generation result.
type Report struct {
	// Name is the UPSIM name.
	Name string `json:"name"`
	// Kernel names the dependability kernel that produced the attribution;
	// it is always "compiled", and stays in the JSON so response bytes are
	// unchanged.
	Kernel string `json:"kernel"`
	// Model is the component availability model ("exact" or "formula1").
	Model string `json:"model"`
	// Services holds the per-atomic-service path provenance in execution
	// order.
	Services []ServiceProvenance `json:"services"`
	// Stats aggregates the path statistics over every atomic service.
	Stats PathStatistics `json:"stats"`
	// Truncated is the OR over the per-service discovery truncation flags.
	Truncated bool `json:"truncated,omitempty"`
	// Attribution is the availability attribution (nil with
	// Options.SkipAttribution).
	Attribution *Attribution `json:"attribution,omitempty"`
}

// Explain builds the provenance and attribution report for a generation
// result. When ctx carries an obs span the assembly is recorded as an
// "explain.report" span with "explain.paths" and "explain.attribution"
// children.
func Explain(ctx context.Context, res *core.Result, opts Options) (*Report, error) {
	if res == nil || res.Source == nil {
		return nil, fmt.Errorf("explain: nil generation result")
	}
	mode := "explain"
	if opts.SkipAttribution {
		mode = "paths"
	}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "explain.report")
	defer span.End()
	span.SetAttr("mode", mode)

	_, psp := obs.StartSpan(ctx, "explain.paths")
	rep := &Report{Name: res.Name, Kernel: "compiled", Model: opts.Model.String()}
	allPaths := make([]pathdisc.Path, 0, res.TotalPaths)
	for _, sp := range res.Services {
		svc, err := serviceProvenance(res, sp)
		if err != nil {
			psp.End()
			return nil, err
		}
		rep.Services = append(rep.Services, svc)
		rep.Truncated = rep.Truncated || svc.Truncated
		allPaths = append(allPaths, sp.Paths...)
	}
	rep.Stats = Statistics(allPaths)
	observePaths(rep.Stats)
	psp.SetAttr("paths", rep.Stats.Count)
	psp.SetAttr("services", len(rep.Services))
	psp.End()

	if !opts.SkipAttribution {
		_, asp := obs.StartSpan(ctx, "explain.attribution")
		attr, err := attribute(res, opts)
		asp.End()
		if err != nil {
			return nil, err
		}
		rep.Attribution = attr
		span.SetAttr("cut_sets", attr.CutSetsTotal)
		span.SetAttr("components", attr.ComponentsTotal)
	}
	mExplainSeconds.With(mode).Observe(time.Since(start).Seconds())
	return rep, nil
}

// observePaths feeds the aggregate statistics into the process metrics.
func observePaths(st PathStatistics) {
	mExplainPaths.With(PathDirect).Add(uint64(st.Direct))
	mExplainPaths.With(PathTransitive).Add(uint64(st.Transitive))
	for depth, n := range st.DepthHistogram {
		h := mExplainDepth.With()
		for i := 0; i < n; i++ {
			h.Observe(float64(depth))
		}
	}
}

// serviceProvenance builds the per-path records, aggregates and discovery
// tree of one atomic service.
func serviceProvenance(res *core.Result, sp core.ServicePaths) (ServiceProvenance, error) {
	out := ServiceProvenance{
		AtomicService: sp.AtomicService,
		Requester:     sp.Requester,
		Provider:      sp.Provider,
		Stats:         Statistics(sp.Paths),
		Truncated:     sp.Stats.Truncated,
	}
	src := res.Source
	for i, p := range sp.Paths {
		rec := PathRecord{
			Index:   i,
			Nodes:   append([]string(nil), p.Nodes...),
			Length:  p.Len(),
			Type:    PathTransitive,
			Classes: make(Counts, len(p.Nodes)),
		}
		if rec.Length <= 1 {
			rec.Type = PathDirect
		}
		for _, n := range p.Nodes {
			node, ok := res.Graph.Node(n)
			if !ok {
				return out, fmt.Errorf("explain: path node %q not in UPSIM graph", n)
			}
			rec.Classes[node.Class]++
		}
		for _, id := range p.Edges {
			if id < 0 || id >= src.NumLinks() {
				return out, fmt.Errorf("explain: path references unknown edge %d", id)
			}
			if rec.Links == nil {
				rec.Links = make(Counts)
			}
			rec.Links[src.LinkAt(id).Association().Name()]++
		}
		rec.Cost, rec.BottleneckMbps, rec.Channels = DiagramPathMetrics(src, p)
		out.Paths = append(out.Paths, rec)
	}
	tree, err := BuildTree(res, sp)
	if err != nil {
		return out, err
	}
	out.Tree = tree
	return out, nil
}

// PathMetrics computes the stereotype-derived metrics of one discovered path
// against the diagram's link list (topology edge ID i is links[i]):
//
//   - cost: the sum of per-edge costs, where an edge with a positive
//     `throughput` attribute costs 1/throughput and any other edge costs 1
//     — the same convention the ranked-discovery kernel resolves at compile
//     time (pathdisc.CostThroughput). The sum is folded right-to-left,
//     matching pathdisc.Compiled.PathCost term-for-term, so the number here
//     is bit-identical to the kernel's ranking cost.
//   - bottleneckMbps: the minimum positive throughput along the path (0 when
//     no edge declares one).
//   - channels: the distinct non-empty `channel` attribute values in
//     traversal order.
//
// Edge IDs outside the link list (possible for what-if patched-in edges that
// have no diagram counterpart) fall back to hop cost 1, exactly like the
// kernel's fallback.
func PathMetrics(links []*uml.Link, p pathdisc.Path) (cost, bottleneckMbps float64, channels []string) {
	return pathMetrics(linkSlice(links), p)
}

// DiagramPathMetrics is PathMetrics against d's link list, without copying
// it.
func DiagramPathMetrics(d *uml.ObjectDiagram, p pathdisc.Path) (cost, bottleneckMbps float64, channels []string) {
	return pathMetrics(d, p)
}

// linkList is an indexed list of links: an object diagram's, or a copy of
// it. Request paths pass the diagram; PathMetrics keeps its slice form
// because the benchmark module calls it.
type linkList interface {
	NumLinks() int
	LinkAt(i int) *uml.Link
}

type linkSlice []*uml.Link

func (s linkSlice) NumLinks() int          { return len(s) }
func (s linkSlice) LinkAt(i int) *uml.Link { return s[i] }

func pathMetrics(links linkList, p pathdisc.Path) (cost, bottleneckMbps float64, channels []string) {
	n := links.NumLinks()
	for i := len(p.Edges) - 1; i >= 0; i-- {
		id := p.Edges[i]
		if id < 0 || id >= n {
			cost = 1 + cost
			continue
		}
		if tp, ok := links.LinkAt(id).Property("throughput"); ok && tp.AsReal() > 0 {
			cost = 1/tp.AsReal() + cost
			if bottleneckMbps == 0 || tp.AsReal() < bottleneckMbps {
				bottleneckMbps = tp.AsReal()
			}
		} else {
			cost = 1 + cost
		}
	}
	var seenChannel map[string]bool
	for _, id := range p.Edges {
		if id < 0 || id >= n {
			continue
		}
		if ch, ok := links.LinkAt(id).Property("channel"); ok && ch.AsString() != "" && !seenChannel[ch.AsString()] {
			if seenChannel == nil {
				seenChannel = make(map[string]bool)
			}
			seenChannel[ch.AsString()] = true
			channels = append(channels, ch.AsString())
		}
	}
	return cost, bottleneckMbps, channels
}

// attribute runs the availability attribution on the compiled kernel.
func attribute(res *core.Result, opts Options) (*Attribution, error) {
	_, cs, avail, err := depend.FromResult(res, opts.Model)
	if err != nil {
		return nil, err
	}
	base, err := cs.Exact(avail)
	if err != nil {
		return nil, err
	}
	attr := &Attribution{Availability: base, Unavailability: 1 - base}

	cuts, err := cs.MinimalCutSets(opts.CutLimit)
	if err != nil {
		return nil, err
	}
	attr.CutSetsTotal = len(cuts)
	recs := make([]CutSetRecord, 0, len(cuts))
	sum := 0.0
	for _, k := range cuts {
		q := 1.0
		for _, c := range k {
			q *= 1 - avail[c]
		}
		sum += q
		recs = append(recs, CutSetRecord{Components: append([]string(nil), k...), Unavailability: q})
	}
	if sum > 0 {
		for i := range recs {
			recs[i].Share = recs[i].Unavailability / sum
		}
	}
	// Cuts arrive in canonical (cardinality, then lexicographic) order; a
	// stable sort on the contribution keeps that order among ties.
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].Unavailability > recs[j].Unavailability
	})
	attr.CutSets = truncate(recs, opts.TopN)

	comps := cs.Components()
	attr.ComponentsTotal = len(comps)
	birnbaum, fussellVesely, err := cs.BirnbaumFussellVesely(avail, base)
	if err != nil {
		return nil, err
	}
	imps := make([]ComponentImportance, 0, len(comps))
	for i, c := range comps {
		class, _, _, err := depend.ComponentSource(res.Source, c)
		if err != nil {
			return nil, err
		}
		imps = append(imps, ComponentImportance{
			Component:     c,
			Class:         class,
			Availability:  avail[c],
			Birnbaum:      birnbaum[i],
			FussellVesely: fussellVesely[i],
		})
	}
	// Components arrive sorted by name; a stable sort on Birnbaum resolves
	// ties to the name order.
	sort.SliceStable(imps, func(i, j int) bool {
		return imps[i].Birnbaum > imps[j].Birnbaum
	})
	attr.Components = truncate(imps, opts.TopN)

	// The class report needs Birnbaum factors under the exact model; when
	// that is the report's model they are the ones just computed.
	var sens *depend.SensitivityReport
	if opts.Model == depend.ModelExact {
		sens, err = depend.SensitivityOf(res, comps, birnbaum)
	} else {
		sens, err = depend.Sensitivity(res)
	}
	if err != nil {
		return nil, err
	}
	for _, c := range sens.Classes {
		attr.Classes = append(attr.Classes, ClassRecord{
			Class:       c.Class,
			Instances:   c.Instances,
			DAvailDMTBF: c.DAvailDMTBF,
			DAvailDMTTR: c.DAvailDMTTR,
		})
	}
	return attr, nil
}

// truncate keeps the first n elements (n <= 0 keeps all).
func truncate[T any](s []T, n int) []T {
	if n > 0 && len(s) > n {
		return s[:n:n]
	}
	return s
}
