package uml

import (
	"fmt"
	"strings"
)

// This file renders UML class and activity diagrams as Graphviz DOT,
// complementing the object-diagram DOT export in package topology.

// ClassDiagramDOT renders the model's classes and associations as a
// Graphviz digraph with record-shaped nodes (name plus attribute
// compartment), the conventional UML class-diagram rendering.
func ClassDiagramDOT(m *Model) string {
	var b strings.Builder
	b.WriteString("graph classes {\n")
	b.WriteString("  node [shape=record, fontname=\"Helvetica\"];\n")
	for _, c := range m.Classes() {
		var attrs []string
		for _, name := range c.PropertyNames() {
			v, _ := c.Property(name)
			attrs = append(attrs, fmt.Sprintf("%s = %s", name, escapeRecord(v.String())))
		}
		stereo := ""
		if names := c.StereotypeNames(); len(names) > 0 {
			stereo = "«" + strings.Join(names, ";") + "»\\n"
		}
		fmt.Fprintf(&b, "  %q [label=\"{%s%s|%s}\"];\n",
			c.Name(), stereo, c.Name(), strings.Join(attrs, "\\l"))
	}
	for _, a := range m.Associations() {
		ea, eb := a.Ends()
		fmt.Fprintf(&b, "  %q -- %q [label=%q];\n", ea.Name(), eb.Name(), a.Name())
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeRecord(s string) string {
	r := strings.NewReplacer("{", "\\{", "}", "\\}", "|", "\\|", "<", "\\<", ">", "\\>", "\"", "\\\"")
	return r.Replace(s)
}

// ActivityDOT renders an activity diagram as a Graphviz digraph in the
// conventional UML notation: filled circle for the initial node, double
// circle for final nodes, rounded boxes for actions and bars for fork/join.
func ActivityDOT(a *Activity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", sanitize(a.Name()))
	b.WriteString("  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n")
	ids := make(map[*ActivityNode]string, len(a.Nodes()))
	for i, n := range a.Nodes() {
		id := fmt.Sprintf("n%d", i)
		ids[n] = id
		switch n.Kind() {
		case NodeInitial:
			fmt.Fprintf(&b, "  %s [shape=circle, style=filled, fillcolor=black, label=\"\", width=0.2];\n", id)
		case NodeFinal:
			fmt.Fprintf(&b, "  %s [shape=doublecircle, style=filled, fillcolor=black, label=\"\", width=0.15];\n", id)
		case NodeAction:
			fmt.Fprintf(&b, "  %s [shape=box, style=rounded, label=%q];\n", id, n.Name())
		case NodeFork, NodeJoin:
			fmt.Fprintf(&b, "  %s [shape=box, style=filled, fillcolor=black, label=\"\", height=0.08, width=1.2];\n", id)
		}
	}
	for _, n := range a.Nodes() {
		for _, t := range n.Outgoing() {
			fmt.Fprintf(&b, "  %s -> %s;\n", ids[n], ids[t])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}

// Summary returns a one-paragraph inventory of the model, used by tooling.
func Summary(m *Model) string {
	instances, links := 0, 0
	for _, d := range m.Diagrams() {
		instances += d.NumInstances()
		links += d.NumLinks()
	}
	parts := []string{
		fmt.Sprintf("%d profiles", len(m.Profiles())),
		fmt.Sprintf("%d classes", len(m.Classes())),
		fmt.Sprintf("%d associations", len(m.Associations())),
		fmt.Sprintf("%d diagrams (%d instances, %d links)", len(m.Diagrams()), instances, links),
		fmt.Sprintf("%d activities", len(m.Activities())),
	}
	return fmt.Sprintf("model %q: %s", m.Name(), strings.Join(parts, ", "))
}
