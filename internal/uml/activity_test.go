package uml

import (
	"strings"
	"testing"
)

// buildPrintingActivity reproduces Figure 10: five atomic services in strict
// sequence.
func buildPrintingActivity(t *testing.T, m *Model) *Activity {
	t.Helper()
	act, err := m.NewActivity("printing")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"Request printing", "Login to printer", "Send document list",
		"Select documents", "Send documents",
	}
	nodes := []*ActivityNode{act.Initial()}
	for _, n := range names {
		a, err := act.AddAction(n)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, a)
	}
	nodes = append(nodes, act.AddFinal())
	for i := 0; i+1 < len(nodes); i++ {
		if err := act.Flow(nodes[i], nodes[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return act
}

// buildParallelActivity reproduces Figure 2: atomic service 1, then services
// 2 and 3 in parallel (fork/join), then service 4.
func buildParallelActivity(t *testing.T, m *Model) *Activity {
	t.Helper()
	act, err := m.NewActivity("parallel")
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := act.AddAction("Atomic Service 1")
	a2, _ := act.AddAction("Atomic Service 2")
	a3, _ := act.AddAction("Atomic Service 3")
	a4, _ := act.AddAction("Atomic Service 4")
	fork := act.AddFork()
	join := act.AddJoin()
	final := act.AddFinal()
	for _, f := range []struct{ s, d *ActivityNode }{
		{act.Initial(), a1}, {a1, fork}, {fork, a2}, {fork, a3},
		{a2, join}, {a3, join}, {join, a4}, {a4, final},
	} {
		if err := act.Flow(f.s, f.d); err != nil {
			t.Fatal(err)
		}
	}
	return act
}

func TestSequentialActivity(t *testing.T) {
	m := NewModel("svc")
	act := buildPrintingActivity(t, m)
	if err := act.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	stages, err := act.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 5 {
		t.Fatalf("stages = %d, want 5", len(stages))
	}
	want := []string{
		"Request printing", "Login to printer", "Send document list",
		"Select documents", "Send documents",
	}
	for i, w := range want {
		if len(stages[i]) != 1 || stages[i][0] != w {
			t.Errorf("stage %d = %v, want [%s]", i, stages[i], w)
		}
	}
	if got := act.ActionNames(); len(got) != 5 || got[0] != want[0] || got[4] != want[4] {
		t.Errorf("ActionNames = %v", got)
	}
}

func TestParallelActivityStages(t *testing.T) {
	m := NewModel("svc")
	act := buildParallelActivity(t, m)
	stages, err := act.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("stages = %v, want 3 stages", stages)
	}
	if len(stages[0]) != 1 || stages[0][0] != "Atomic Service 1" {
		t.Errorf("stage 0 = %v", stages[0])
	}
	if len(stages[1]) != 2 || stages[1][0] != "Atomic Service 2" || stages[1][1] != "Atomic Service 3" {
		t.Errorf("stage 1 = %v", stages[1])
	}
	if len(stages[2]) != 1 || stages[2][0] != "Atomic Service 4" {
		t.Errorf("stage 2 = %v", stages[2])
	}
}

func TestActivityValidationErrors(t *testing.T) {
	t.Run("no final", func(t *testing.T) {
		m := NewModel("x")
		act, _ := m.NewActivity("a")
		n, _ := act.AddAction("s")
		_ = act.Flow(act.Initial(), n)
		if err := act.Validate(); err == nil {
			t.Error("activity without final node must be invalid")
		}
	})
	t.Run("dangling action", func(t *testing.T) {
		m := NewModel("x")
		act, _ := m.NewActivity("a")
		n, _ := act.AddAction("s")
		final := act.AddFinal()
		_ = act.Flow(act.Initial(), n)
		_ = act.Flow(n, final)
		_, _ = act.AddAction("orphan")
		if err := act.Validate(); err == nil || !strings.Contains(err.Error(), "orphan") {
			t.Errorf("orphan action must be invalid, got %v", err)
		}
	})
	t.Run("fork with single branch", func(t *testing.T) {
		m := NewModel("x")
		act, _ := m.NewActivity("a")
		f := act.AddFork()
		n, _ := act.AddAction("s")
		final := act.AddFinal()
		_ = act.Flow(act.Initial(), f)
		_ = act.Flow(f, n)
		_ = act.Flow(n, final)
		if err := act.Validate(); err == nil {
			t.Error("fork with one branch must be invalid")
		}
	})
	t.Run("action with two outputs", func(t *testing.T) {
		m := NewModel("x")
		act, _ := m.NewActivity("a")
		n, _ := act.AddAction("s")
		f1 := act.AddFinal()
		f2 := act.AddFinal()
		_ = act.Flow(act.Initial(), n)
		_ = act.Flow(n, f1)
		_ = act.Flow(n, f2)
		if err := act.Validate(); err == nil {
			t.Error("action with two outgoing flows must be invalid (no decision nodes)")
		}
	})
}

func TestActivityFlowErrors(t *testing.T) {
	m := NewModel("x")
	act, _ := m.NewActivity("a")
	n, _ := act.AddAction("s")
	final := act.AddFinal()
	if err := act.Flow(act.Initial(), n); err != nil {
		t.Fatal(err)
	}
	if err := act.Flow(act.Initial(), n); err == nil {
		t.Error("duplicate flow should fail")
	}
	if err := act.Flow(final, n); err == nil {
		t.Error("flow out of final should fail")
	}
	if err := act.Flow(n, act.Initial()); err == nil {
		t.Error("flow into initial should fail")
	}
	if err := act.Flow(n, n); err == nil {
		t.Error("self flow should fail")
	}
	if err := act.Flow(nil, n); err == nil {
		t.Error("nil end should fail")
	}
	other, _ := m.NewActivity("b")
	on, _ := other.AddAction("os")
	if err := act.Flow(n, on); err == nil {
		t.Error("cross-activity flow should fail")
	}
}

func TestActivityCycleDetection(t *testing.T) {
	m := NewModel("x")
	act, _ := m.NewActivity("a")
	n1, _ := act.AddAction("s1")
	j := act.AddJoin()
	f := act.AddFork()
	final := act.AddFinal()
	// initial -> join <- (cycle back from fork); join -> s1 -> fork -> final
	//                                              fork ----------^ back to join
	mustFlow := func(s, d *ActivityNode) {
		t.Helper()
		if err := act.Flow(s, d); err != nil {
			t.Fatal(err)
		}
	}
	mustFlow(act.Initial(), j)
	mustFlow(j, n1)
	mustFlow(n1, f)
	mustFlow(f, final)
	mustFlow(f, j) // closes the cycle
	if err := act.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle must be detected, got %v", err)
	}
}

func TestActivityDuplicates(t *testing.T) {
	m := NewModel("x")
	act, _ := m.NewActivity("a")
	if _, err := m.NewActivity("a"); err == nil {
		t.Error("duplicate activity should fail")
	}
	if _, err := m.NewActivity(""); err == nil {
		t.Error("empty activity name should fail")
	}
	if _, err := act.AddAction("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := act.AddAction("s"); err == nil {
		t.Error("duplicate action should fail")
	}
	if _, err := act.AddAction(""); err == nil {
		t.Error("empty action name should fail")
	}
	if got, ok := m.Activity("a"); !ok || got != act {
		t.Error("Activity lookup failed")
	}
	if len(m.Activities()) != 1 {
		t.Error("Activities should list one")
	}
}

func TestNodeKindString(t *testing.T) {
	kinds := map[NodeKind]string{
		NodeInitial: "Initial", NodeFinal: "Final", NodeAction: "Action",
		NodeFork: "Fork", NodeJoin: "Join",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	m := NewModel("x")
	act, _ := m.NewActivity("a")
	n, _ := act.AddAction("svc")
	if n.String() != "Action(svc)" {
		t.Errorf("node String = %q", n.String())
	}
	if act.Initial().String() != "Initial" {
		t.Errorf("initial String = %q", act.Initial().String())
	}
}
