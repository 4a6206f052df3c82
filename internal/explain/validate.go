package explain

import (
	"context"
	"fmt"
	"sort"
	"time"

	"upsim/internal/core"
	"upsim/internal/obs"
	"upsim/internal/uml"
)

// Validation issue kinds, from most to least severe: a used component or
// link vanished from the topology, its class changed, or a stereotype
// attribute the analysis depends on changed value.
const (
	IssueMissingNode     = "missing-node"
	IssueMissingLink     = "missing-link"
	IssueClassChanged    = "class-changed"
	IssuePropertyChanged = "property-changed"
)

// linkProperties are the stereotype attributes checked on links: the
// availability profile's failure data plus the Communication stereotype's
// QoS attributes — exactly what the dependability and QoS analyses read.
var linkProperties = []string{"MTBF", "MTTR", "throughput", "channel"}

// Issue is one reason a cached generation is stale.
type Issue struct {
	// Kind is one of the Issue* constants.
	Kind string `json:"kind"`
	// Subject identifies the stale element: an instance name or a link
	// rendered as "a--b (Association)".
	Subject string `json:"subject"`
	// Detail spells out the mismatch.
	Detail string `json:"detail"`
}

// Validation is the result of checking a cached generation against the
// current topology.
type Validation struct {
	// Name is the UPSIM name of the validated generation.
	Name string `json:"name"`
	// Fresh is true when every path node and link of the generation is
	// still present with unchanged stereotype values.
	Fresh bool `json:"fresh"`
	// NodesChecked and LinksChecked count the distinct components the
	// generation's paths traverse.
	NodesChecked int `json:"nodesChecked"`
	LinksChecked int `json:"linksChecked"`
	// Issues lists every reason the generation is stale (empty when Fresh).
	Issues []Issue `json:"issues,omitempty"`
}

// Validate checks a cached generation result against the current topology
// diagram: every node and link any discovered path traverses must still
// exist, instantiate the same class (or association), and carry the same
// stereotype values. A generation that fails validation is stale — its
// paths, and every availability or QoS number derived from them, no longer
// describe the infrastructure.
func Validate(ctx context.Context, res *core.Result, cur *uml.ObjectDiagram) (*Validation, error) {
	if res == nil || res.Source == nil {
		return nil, fmt.Errorf("explain: nil generation result")
	}
	if cur == nil {
		return nil, fmt.Errorf("explain: nil current diagram")
	}
	start := time.Now()
	_, span := obs.StartStage(ctx, "explain.validate")
	defer span.End()

	v := &Validation{Name: res.Name}
	seen := make(map[string]bool) // kind + "\x00" + subject dedupe
	report := func(kind, subject, format string, args ...any) {
		key := kind + "\x00" + subject
		if seen[key] {
			return
		}
		seen[key] = true
		v.Issues = append(v.Issues, Issue{Kind: kind, Subject: subject, Detail: fmt.Sprintf(format, args...)})
	}

	nodes := make(map[string]bool)
	edges := make(map[int]bool)
	for _, sp := range res.Services {
		for _, p := range sp.Paths {
			for _, n := range p.Nodes {
				nodes[n] = true
			}
			for _, id := range p.Edges {
				edges[id] = true
			}
		}
	}
	v.NodesChecked = len(nodes)
	v.LinksChecked = len(edges)

	sortedNodes := make([]string, 0, len(nodes))
	for n := range nodes {
		sortedNodes = append(sortedNodes, n)
	}
	sort.Strings(sortedNodes)
	for _, name := range sortedNodes {
		orig, ok := res.Source.Instance(name)
		if !ok {
			return nil, fmt.Errorf("explain: path node %q not in source diagram", name)
		}
		curInst, ok := cur.Instance(name)
		if !ok {
			report(IssueMissingNode, name, "component %q no longer in diagram %q", name, cur.Name())
			continue
		}
		oc, cc := orig.Classifier(), curInst.Classifier()
		if oc.Name() != cc.Name() {
			report(IssueClassChanged, name, "component %q changed class %q -> %q", name, oc.Name(), cc.Name())
			continue
		}
		for _, prop := range oc.PropertyNames() {
			ov, had := oc.Property(prop)
			nv, has := cc.Property(prop)
			if had != has || (had && !ov.Equal(nv)) {
				report(IssuePropertyChanged, name, "component %q property %s changed %s -> %s",
					name, prop, ov.String(), nv.String())
			}
		}
	}

	// Links match by (endpoints, association) with multiplicity: the graph
	// layer supports parallel redundant links, so n used parallels need n
	// surviving parallels — a bare "some link still exists" test would miss
	// the removal of one of two redundant connections.
	src := res.Source
	sortedEdges := make([]int, 0, len(edges))
	for id := range edges {
		sortedEdges = append(sortedEdges, id)
	}
	sort.Ints(sortedEdges)
	type group struct {
		first *uml.Link
		used  int
	}
	groups := make(map[string]*group)
	order := make([]string, 0, len(sortedEdges))
	for _, id := range sortedEdges {
		if id < 0 || id >= src.NumLinks() {
			return nil, fmt.Errorf("explain: path references unknown edge %d", id)
		}
		l := src.LinkAt(id)
		a, b := l.Ends()
		an, bn := a.Name(), b.Name()
		if bn < an {
			an, bn = bn, an
		}
		key := an + "\x00" + bn + "\x00" + l.Association().Name()
		g, ok := groups[key]
		if !ok {
			g = &group{first: l}
			groups[key] = g
			order = append(order, key)
		}
		g.used++
	}
	for _, key := range order {
		g := groups[key]
		a, b := g.first.Ends()
		assoc := g.first.Association().Name()
		subject := g.first.Signature()
		var match *uml.Link
		present := 0
		for _, cl := range cur.LinksBetween(a.Name(), b.Name()) {
			if cl.Association().Name() == assoc {
				present++
				if match == nil {
					match = cl
				}
			}
		}
		if present < g.used {
			report(IssueMissingLink, subject, "link %s: %d of %d used parallel links remain in diagram %q",
				subject, present, g.used, cur.Name())
		}
		if match == nil {
			continue
		}
		for _, prop := range linkProperties {
			ov, had := g.first.Property(prop)
			nv, has := match.Property(prop)
			if had != has || (had && !ov.Equal(nv)) {
				report(IssuePropertyChanged, subject, "link %s property %s changed %s -> %s",
					subject, prop, ov.String(), nv.String())
			}
		}
	}

	v.Fresh = len(v.Issues) == 0
	span.SetInt("nodes", v.NodesChecked)
	span.SetInt("links", v.LinksChecked)
	span.SetAttr("fresh", v.Fresh)
	span.SetInt("issues", len(v.Issues))
	mExplainSeconds.With("validate").Observe(time.Since(start).Seconds())
	return v, nil
}
