package service

import (
	"strings"
	"testing"

	"upsim/internal/mapping"
	"upsim/internal/uml"
)

func printingService(t *testing.T) *Composite {
	t.Helper()
	m := uml.NewModel("svc")
	c, err := NewSequential(m, "printing",
		"Request printing", "Login to printer", "Send document list",
		"Select documents", "Send documents")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewSequential(t *testing.T) {
	c := printingService(t)
	if c.Name() != "printing" {
		t.Errorf("Name = %q", c.Name())
	}
	atomics := c.AtomicServices()
	if len(atomics) != 5 || atomics[0] != "Request printing" || atomics[4] != "Send documents" {
		t.Errorf("AtomicServices = %v", atomics)
	}
	stages := c.Stages()
	if len(stages) != 5 {
		t.Fatalf("Stages = %v", stages)
	}
	for i, s := range stages {
		if len(s) != 1 {
			t.Errorf("stage %d = %v, want singleton", i, s)
		}
	}
}

func TestNewStagedParallel(t *testing.T) {
	m := uml.NewModel("svc")
	c, err := NewStaged(m, "figure2", [][]string{
		{"Atomic Service 1"},
		{"Atomic Service 2", "Atomic Service 3"},
		{"Atomic Service 4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	stages := c.Stages()
	if len(stages) != 3 || len(stages[1]) != 2 {
		t.Errorf("Stages = %v", stages)
	}
	// The generated activity must be a valid UML diagram.
	act, ok := m.Activity("figure2")
	if !ok {
		t.Fatal("activity figure2 not in the model")
	}
	if err := act.Validate(); err != nil {
		t.Errorf("generated activity invalid: %v", err)
	}
}

func TestNewStagedErrors(t *testing.T) {
	m := uml.NewModel("svc")
	if _, err := NewStaged(nil, "x", [][]string{{"a"}, {"b"}}); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := NewStaged(m, "x", nil); err == nil {
		t.Error("no stages should fail")
	}
	if _, err := NewStaged(m, "y", [][]string{{"a"}, {}}); err == nil {
		t.Error("empty stage should fail")
	}
	if _, err := NewStaged(m, "z", [][]string{{"a"}, {"a"}}); err == nil {
		t.Error("duplicate atomic service should fail")
	}
	// A single atomic service is not a composite (Section II).
	if _, err := NewSequential(m, "solo", "only"); err == nil {
		t.Error("single-service composite should fail")
	}
	if _, err := NewSequential(m, "printing2", "a", "b"); err != nil {
		t.Errorf("two-service composite should be fine: %v", err)
	}
	// Duplicate activity name.
	if _, err := NewSequential(m, "printing2", "c", "d"); err == nil {
		t.Error("duplicate service name should fail")
	}
}

func TestFromActivity(t *testing.T) {
	m := uml.NewModel("svc")
	act, _ := m.NewActivity("manual")
	a1, _ := act.AddAction("s1")
	a2, _ := act.AddAction("s2")
	final := act.AddFinal()
	_ = act.Flow(act.Initial(), a1)
	_ = act.Flow(a1, a2)
	_ = act.Flow(a2, final)
	c, err := FromActivity(act)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AtomicServices(); len(got) != 2 {
		t.Errorf("AtomicServices = %v", got)
	}
	if _, err := FromActivity(nil); err == nil {
		t.Error("nil activity should fail")
	}
	bad, _ := m.NewActivity("bad")
	if _, err := FromActivity(bad); err == nil {
		t.Error("invalid activity should fail")
	}
}

func tableI(t *testing.T) *mapping.Mapping {
	t.Helper()
	m := mapping.New()
	for _, p := range []mapping.Pair{
		{AtomicService: "Request printing", Requester: "t1", Provider: "printS"},
		{AtomicService: "Login to printer", Requester: "p2", Provider: "printS"},
		{AtomicService: "Send document list", Requester: "printS", Provider: "p2"},
		{AtomicService: "Select documents", Requester: "p2", Provider: "printS"},
		{AtomicService: "Send documents", Requester: "printS", Provider: "p2"},
	} {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestCheckMapping(t *testing.T) {
	c := printingService(t)
	m := tableI(t)
	if err := c.CheckMapping(m); err != nil {
		t.Errorf("complete mapping should pass: %v", err)
	}
	// Extra pairs are permitted and ignored.
	_ = m.Add(mapping.Pair{AtomicService: "Request backup", Requester: "t2", Provider: "backup"})
	if err := c.CheckMapping(m); err != nil {
		t.Errorf("extra pairs must be ignored: %v", err)
	}
	// Missing pair is an error naming the service.
	incomplete := mapping.New()
	_ = incomplete.Add(mapping.Pair{AtomicService: "Request printing", Requester: "t1", Provider: "printS"})
	err := c.CheckMapping(incomplete)
	if err == nil || !strings.Contains(err.Error(), "Login to printer") {
		t.Errorf("missing pairs error = %v", err)
	}
	if err := c.CheckMapping(nil); err == nil {
		t.Error("nil mapping should fail")
	}
}

func TestRelevantPairs(t *testing.T) {
	c := printingService(t)
	m := tableI(t)
	_ = m.Add(mapping.Pair{AtomicService: "Request backup", Requester: "t2", Provider: "backup"})
	pairs, err := c.RelevantPairs(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("RelevantPairs = %v", pairs)
	}
	// Execution order, and the irrelevant backup pair excluded.
	if pairs[0].AtomicService != "Request printing" || pairs[4].AtomicService != "Send documents" {
		t.Errorf("order = %v", pairs)
	}
	for _, p := range pairs {
		if p.AtomicService == "Request backup" {
			t.Error("irrelevant pair included")
		}
	}
	incomplete := mapping.New()
	if _, err := c.RelevantPairs(incomplete); err == nil {
		t.Error("incomplete mapping should fail")
	}
}
