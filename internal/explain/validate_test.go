package explain

import (
	"context"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/uml"
)

// currentDiagram rebuilds the USI infrastructure as a "current topology"
// diagram inside a freshly built model, optionally dropping one instance
// (and its links) or one link, identified by the source diagram's
// deterministic ordering. The mutation simulates operational drift between
// a cached generation and the live infrastructure.
func currentDiagram(t *testing.T, skipNode string, skipEdge int) *uml.ObjectDiagram {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	src, ok := m.Diagram(casestudy.DiagramName)
	if !ok {
		t.Fatal("no infrastructure diagram")
	}
	cur := m.NewObjectDiagram("current")
	for _, inst := range src.Instances() {
		if inst.Name() == skipNode {
			continue
		}
		if _, err := cur.AddInstance(inst.Name(), inst.Classifier()); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range src.Links() {
		if i == skipEdge {
			continue
		}
		a, b := l.Ends()
		if a.Name() == skipNode || b.Name() == skipNode {
			continue
		}
		if _, err := cur.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			t.Fatal(err)
		}
	}
	return cur
}

func hasIssue(v *Validation, kind, subject string) bool {
	for _, is := range v.Issues {
		if is.Kind == kind && is.Subject == subject {
			return true
		}
	}
	return false
}

// TestValidateFresh pins the base case: an unmutated rebuild of the
// infrastructure validates fresh.
func TestValidateFresh(t *testing.T) {
	res := usiResult(t)
	v, err := Validate(context.Background(), res, currentDiagram(t, "", -1))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Fresh || len(v.Issues) != 0 {
		t.Fatalf("unmutated topology not fresh: %+v", v)
	}
	if v.NodesChecked == 0 || v.LinksChecked == 0 {
		t.Fatalf("nothing checked: %+v", v)
	}
}

// TestValidateRemovedNodes is the property test over nodes: removing ANY
// node used by the cached generation flips validation to stale with a
// missing-node issue naming it; removing any unused node keeps it fresh.
func TestValidateRemovedNodes(t *testing.T) {
	res := usiResult(t)
	used := make(map[string]bool)
	for _, sp := range res.Services {
		for _, p := range sp.Paths {
			for _, n := range p.Nodes {
				used[n] = true
			}
		}
	}
	if len(used) == 0 {
		t.Fatal("no used nodes")
	}
	unrelated := 0
	for _, inst := range res.Source.Instances() {
		name := inst.Name()
		v, err := Validate(context.Background(), res, currentDiagram(t, name, -1))
		if err != nil {
			t.Fatal(err)
		}
		if used[name] {
			if v.Fresh || !hasIssue(v, IssueMissingNode, name) {
				t.Errorf("removing used node %q: fresh=%v issues=%+v, want missing-node", name, v.Fresh, v.Issues)
			}
		} else {
			unrelated++
			if !v.Fresh {
				t.Errorf("removing unused node %q flipped validation stale: %+v", name, v.Issues)
			}
		}
	}
	if unrelated == 0 {
		t.Fatal("USI fixture has no unused node; the unrelated-mutation property was not exercised")
	}
}

// TestValidateRemovedLinks is the property test over links: removing ANY
// link used by the cached generation flips validation to stale with a
// missing-link issue; removing any unused link keeps it fresh.
func TestValidateRemovedLinks(t *testing.T) {
	res := usiResult(t)
	used := make(map[int]bool)
	for _, sp := range res.Services {
		for _, p := range sp.Paths {
			for _, id := range p.Edges {
				used[id] = true
			}
		}
	}
	if len(used) == 0 {
		t.Fatal("no used links")
	}
	links := res.Source.Links()
	unrelated := 0
	for id, l := range links {
		v, err := Validate(context.Background(), res, currentDiagram(t, "", id))
		if err != nil {
			t.Fatal(err)
		}
		if used[id] {
			if v.Fresh || !hasIssue(v, IssueMissingLink, l.Signature()) {
				t.Errorf("removing used link %s: fresh=%v issues=%+v, want missing-link", l.Signature(), v.Fresh, v.Issues)
			}
		} else {
			unrelated++
			if !v.Fresh {
				t.Errorf("removing unused link %s flipped validation stale: %+v", l.Signature(), v.Issues)
			}
		}
	}
	if unrelated == 0 {
		t.Fatal("USI fixture has no unused link; the unrelated-mutation property was not exercised")
	}
}

// TestValidateClassChanged covers a component re-deployed as a different
// device type.
func TestValidateClassChanged(t *testing.T) {
	res := usiResult(t)
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	src, _ := m.Diagram(casestudy.DiagramName)
	cur := m.NewObjectDiagram("current")
	for _, inst := range src.Instances() {
		cls := inst.Classifier()
		if inst.Name() == "e1" { // e1 is on every t1→printS path
			other, ok := m.Class("C6500")
			if !ok {
				t.Fatal("no C6500 class")
			}
			cls = other
		}
		if _, err := cur.AddInstance(inst.Name(), cls); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range src.Links() {
		a, b := l.Ends()
		if a.Name() == "e1" || b.Name() == "e1" {
			continue // the association no longer type-checks against C6500
		}
		if _, err := cur.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			t.Fatal(err)
		}
	}
	v, err := Validate(context.Background(), res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if v.Fresh || !hasIssue(v, IssueClassChanged, "e1") {
		t.Fatalf("class change not detected: %+v", v)
	}
}

// TestValidatePropertyChanged covers stereotype value drift on devices and
// links: a changed MTBF on a used class and a changed throughput on a used
// association both flip validation stale with property-changed issues, while
// drift on an unused class keeps it fresh.
func TestValidatePropertyChanged(t *testing.T) {
	res := usiResult(t)

	mutate := func(f func(m *uml.Model)) *Validation {
		m, err := casestudy.BuildModel()
		if err != nil {
			t.Fatal(err)
		}
		f(m)
		cur, ok := m.Diagram(casestudy.DiagramName)
		if !ok {
			t.Fatal("no infrastructure diagram")
		}
		v, err := Validate(context.Background(), res, cur)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Drift on the client class: t1 instantiates Comp.
	v := mutate(func(m *uml.Model) {
		c, ok := m.Class("Comp")
		if !ok {
			t.Fatal("no Comp class")
		}
		if err := c.SetProperty("MTBF", uml.RealValue(1)); err != nil {
			t.Fatal(err)
		}
	})
	if v.Fresh || !hasIssue(v, IssuePropertyChanged, "t1") {
		t.Fatalf("device MTBF drift not detected: %+v", v)
	}

	// Drift on a used association's throughput.
	usedEdge := res.Services[0].Paths[0].Edges[0]
	assocName := res.Source.Links()[usedEdge].Association().Name()
	v = mutate(func(m *uml.Model) {
		as, ok := m.Association(assocName)
		if !ok {
			t.Fatalf("no association %q", assocName)
		}
		var app *uml.StereotypeApplication
		for _, a := range as.Applications() {
			if a.Stereotype().IsKindOf("Communication") {
				app = a
				break
			}
		}
		if app == nil {
			t.Fatalf("association %q has no Communication stereotype", assocName)
		}
		if err := app.Set("throughput", uml.RealValue(1)); err != nil {
			t.Fatal(err)
		}
	})
	if v.Fresh {
		t.Fatalf("link throughput drift not detected: %+v", v)
	}
	found := false
	for _, is := range v.Issues {
		if is.Kind == IssuePropertyChanged {
			found = true
		}
	}
	if !found {
		t.Fatalf("no property-changed issue for link drift: %+v", v.Issues)
	}

	// Growing the topology is an unrelated mutation: a new client and its
	// uplink do not touch any element the cached generation used.
	v = mutate(func(m *uml.Model) {
		d, ok := m.Diagram(casestudy.DiagramName)
		if !ok {
			t.Fatal("no infrastructure diagram")
		}
		comp, _ := m.Class("Comp")
		if _, err := d.AddInstance("t99", comp); err != nil {
			t.Fatal(err)
		}
		as, ok := m.Association("Comp-HP2650")
		if !ok {
			t.Fatal("no Comp-HP2650 association")
		}
		if _, err := d.ConnectByName("t99", "e1", as); err != nil {
			t.Fatal(err)
		}
	})
	if !v.Fresh {
		t.Fatalf("adding a new client flipped validation stale: %+v", v.Issues)
	}
}
