package uml

import (
	"strings"
	"testing"
)

func TestClassDiagramDOT(t *testing.T) {
	m, _, _, _ := testModel(t)
	dot := ClassDiagramDOT(m)
	for _, want := range []string{
		"graph classes {", "shape=record", "«Device»", "MTBF = 3000",
		`"Comp" -- "C6500" [label="Comp-C6500"]`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestEscapeRecord(t *testing.T) {
	got := escapeRecord(`a{b}c|d<e>f"g`)
	want := `a\{b\}c\|d\<e\>f\"g`
	if got != want {
		t.Errorf("escapeRecord = %q, want %q", got, want)
	}
}

func TestActivityDOT(t *testing.T) {
	m := NewModel("svc")
	act := buildParallelActivity(t, m)
	dot := ActivityDOT(act)
	for _, want := range []string{
		`digraph "parallel"`, "shape=circle", "doublecircle",
		`label="Atomic Service 1"`, "->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("activity DOT missing %q:\n%s", want, dot)
		}
	}
	// Fork/join bars present.
	if strings.Count(dot, "height=0.08") != 2 {
		t.Errorf("expected 2 fork/join bars:\n%s", dot)
	}
	// Flow count: 8 edges in the Figure 2 shape.
	if strings.Count(dot, "->") != 8 {
		t.Errorf("flow edges = %d, want 8", strings.Count(dot, "->"))
	}
}

func TestSummary(t *testing.T) {
	m := fullFixture(t)
	s := Summary(m)
	for _, want := range []string{
		`model "test"`, "2 profiles", "2 classes", "1 associations",
		"1 diagrams (2 instances, 1 links)", "2 activities",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
