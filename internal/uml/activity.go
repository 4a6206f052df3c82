package uml

import (
	"fmt"
	"sort"
)

// NodeKind enumerates the activity-diagram node types the service model
// uses (Section V-A2 and Figure 2): initial and final nodes, actions (one
// per atomic service) and fork/join figures for parallel execution. Decision
// nodes are deliberately absent — the paper models separate decision
// branches as separate services.
type NodeKind uint8

const (
	// NodeInitial is the single entry node of an activity.
	NodeInitial NodeKind = iota
	// NodeFinal is an exit node of an activity.
	NodeFinal
	// NodeAction is an executable action; in the service model every
	// action invokes exactly one atomic service.
	NodeAction
	// NodeFork splits the control flow into concurrent branches.
	NodeFork
	// NodeJoin synchronises concurrent branches.
	NodeJoin
)

// String returns the node kind name.
func (k NodeKind) String() string {
	switch k {
	case NodeInitial:
		return "Initial"
	case NodeFinal:
		return "Final"
	case NodeAction:
		return "Action"
	case NodeFork:
		return "Fork"
	case NodeJoin:
		return "Join"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// ActivityNode is one node of an activity diagram.
type ActivityNode struct {
	kind     NodeKind
	name     string
	activity *Activity
	out      []*ActivityNode
	in       []*ActivityNode
}

// Kind returns the node kind.
func (n *ActivityNode) Kind() NodeKind { return n.kind }

// Name returns the node name. For actions this is the atomic service name.
func (n *ActivityNode) Name() string { return n.name }

// Outgoing returns the targets of the node's outgoing control flows.
func (n *ActivityNode) Outgoing() []*ActivityNode {
	out := make([]*ActivityNode, len(n.out))
	copy(out, n.out)
	return out
}

// Incoming returns the sources of the node's incoming control flows.
func (n *ActivityNode) Incoming() []*ActivityNode {
	in := make([]*ActivityNode, len(n.in))
	copy(in, n.in)
	return in
}

// String renders the node, e.g. "Action(Request printing)".
func (n *ActivityNode) String() string {
	if n.name != "" {
		return fmt.Sprintf("%s(%s)", n.kind, n.name)
	}
	return n.kind.String()
}

// Activity is a UML activity diagram describing a composite service as a
// flow of actions. It is assumed that each action is executed — in series or
// in parallel (Section V-A2).
type Activity struct {
	name    string
	nodes   []*ActivityNode
	initial *ActivityNode
	actions map[string]*ActivityNode
}

// NewActivity creates an activity diagram in the model. The single initial
// node is created implicitly.
func (m *Model) NewActivity(name string) (*Activity, error) {
	if name == "" {
		return nil, fmt.Errorf("uml: model %s: empty activity name", m.name)
	}
	if _, dup := m.activities[name]; dup {
		return nil, fmt.Errorf("uml: model %s: duplicate activity %s", m.name, name)
	}
	a := &Activity{name: name, actions: make(map[string]*ActivityNode)}
	a.initial = a.addNode(NodeInitial, "")
	m.activities[name] = a
	m.actOrder = append(m.actOrder, name)
	return a, nil
}

// Name returns the activity name (the composite service name).
func (a *Activity) Name() string { return a.name }

// Initial returns the initial node.
func (a *Activity) Initial() *ActivityNode { return a.initial }

func (a *Activity) addNode(kind NodeKind, name string) *ActivityNode {
	n := &ActivityNode{kind: kind, name: name, activity: a}
	a.nodes = append(a.nodes, n)
	return n
}

// AddAction creates an action node named after an atomic service. Action
// names are unique within the activity: the composite service invokes each
// atomic service through a distinct action.
func (a *Activity) AddAction(name string) (*ActivityNode, error) {
	if name == "" {
		return nil, fmt.Errorf("uml: activity %s: empty action name", a.name)
	}
	if _, dup := a.actions[name]; dup {
		return nil, fmt.Errorf("uml: activity %s: duplicate action %s", a.name, name)
	}
	n := a.addNode(NodeAction, name)
	a.actions[name] = n
	return n, nil
}

// AddFinal creates a final node.
func (a *Activity) AddFinal() *ActivityNode { return a.addNode(NodeFinal, "") }

// AddFork creates a fork node.
func (a *Activity) AddFork() *ActivityNode { return a.addNode(NodeFork, "") }

// AddJoin creates a join node.
func (a *Activity) AddJoin() *ActivityNode { return a.addNode(NodeJoin, "") }

// Flow adds a control flow from src to dst. Both nodes must belong to the
// activity; flows out of final nodes and into the initial node are rejected.
func (a *Activity) Flow(src, dst *ActivityNode) error {
	if src == nil || dst == nil {
		return fmt.Errorf("uml: activity %s: nil flow end", a.name)
	}
	if src.activity != a || dst.activity != a {
		return fmt.Errorf("uml: activity %s: flow across activities", a.name)
	}
	if src.kind == NodeFinal {
		return fmt.Errorf("uml: activity %s: flow out of final node", a.name)
	}
	if dst.kind == NodeInitial {
		return fmt.Errorf("uml: activity %s: flow into initial node", a.name)
	}
	if src == dst {
		return fmt.Errorf("uml: activity %s: self flow on %s", a.name, src)
	}
	for _, t := range src.out {
		if t == dst {
			return fmt.Errorf("uml: activity %s: duplicate flow %s -> %s", a.name, src, dst)
		}
	}
	src.out = append(src.out, dst)
	dst.in = append(dst.in, src)
	return nil
}

// Nodes returns all nodes in creation order.
func (a *Activity) Nodes() []*ActivityNode {
	out := make([]*ActivityNode, len(a.nodes))
	copy(out, a.nodes)
	return out
}

// ActionNames returns the atomic service names referenced by the activity in
// node creation order (the order actions were modelled).
func (a *Activity) ActionNames() []string {
	var out []string
	for _, n := range a.nodes {
		if n.kind == NodeAction {
			out = append(out, n.name)
		}
	}
	return out
}

// Validate checks the well-formedness rules the service model relies on:
// exactly one initial node, at least one final node, every node reachable
// from the initial node, every non-final node reaching a final node, no
// cycles (all atomic services execute exactly once), matching in/out degrees
// for fork/join, and single-in/single-out actions.
func (a *Activity) Validate() error {
	finals := 0
	for _, n := range a.nodes {
		switch n.kind {
		case NodeInitial:
			if len(n.in) != 0 {
				return fmt.Errorf("uml: activity %s: initial node has incoming flows", a.name)
			}
			if len(n.out) != 1 {
				return fmt.Errorf("uml: activity %s: initial node must have exactly one outgoing flow, has %d",
					a.name, len(n.out))
			}
		case NodeFinal:
			finals++
			if len(n.in) == 0 {
				return fmt.Errorf("uml: activity %s: unreachable final node", a.name)
			}
		case NodeAction:
			if len(n.in) != 1 || len(n.out) != 1 {
				return fmt.Errorf("uml: activity %s: action %s must have one incoming and one outgoing flow (has %d/%d)",
					a.name, n.name, len(n.in), len(n.out))
			}
		case NodeFork:
			if len(n.in) != 1 {
				return fmt.Errorf("uml: activity %s: fork must have one incoming flow, has %d", a.name, len(n.in))
			}
			if len(n.out) < 2 {
				return fmt.Errorf("uml: activity %s: fork must have at least two outgoing flows, has %d",
					a.name, len(n.out))
			}
		case NodeJoin:
			if len(n.in) < 2 {
				return fmt.Errorf("uml: activity %s: join must have at least two incoming flows, has %d",
					a.name, len(n.in))
			}
			if len(n.out) != 1 {
				return fmt.Errorf("uml: activity %s: join must have one outgoing flow, has %d", a.name, len(n.out))
			}
		}
	}
	if finals == 0 {
		return fmt.Errorf("uml: activity %s: no final node", a.name)
	}
	if err := a.checkAcyclicAndConnected(); err != nil {
		return err
	}
	return nil
}

func (a *Activity) checkAcyclicAndConnected() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*ActivityNode]int, len(a.nodes))
	var visit func(n *ActivityNode) error
	visit = func(n *ActivityNode) error {
		color[n] = grey
		for _, t := range n.out {
			switch color[t] {
			case grey:
				return fmt.Errorf("uml: activity %s: cycle through %s", a.name, t)
			case white:
				if err := visit(t); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	if err := visit(a.initial); err != nil {
		return err
	}
	for _, n := range a.nodes {
		if color[n] != black {
			return fmt.Errorf("uml: activity %s: node %s unreachable from initial node", a.name, n)
		}
	}
	// Every node must reach a final node; walk the reverse graph from finals.
	reach := make(map[*ActivityNode]bool)
	var back func(n *ActivityNode)
	back = func(n *ActivityNode) {
		if reach[n] {
			return
		}
		reach[n] = true
		for _, p := range n.in {
			back(p)
		}
	}
	for _, n := range a.nodes {
		if n.kind == NodeFinal {
			back(n)
		}
	}
	for _, n := range a.nodes {
		if !reach[n] {
			return fmt.Errorf("uml: activity %s: node %s cannot reach a final node", a.name, n)
		}
	}
	return nil
}

// Stages partitions the actions into sequential execution stages: stage i+1
// starts only after every action of stage i completed. Actions within one
// stage run in parallel (they are separated by fork/join figures). Stages is
// the execution-order view Step 7 iterates over, and the structure the
// dependability analysis uses to build series/parallel RBDs for composite
// services.
func (a *Activity) Stages() ([][]string, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	// Longest-path layering over the DAG: an action's stage is the number
	// of actions on the longest path from the initial node to it.
	depth := make(map[*ActivityNode]int, len(a.nodes))
	indeg := make(map[*ActivityNode]int, len(a.nodes))
	for _, n := range a.nodes {
		indeg[n] = len(n.in)
	}
	queue := []*ActivityNode{a.initial}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		d := depth[n]
		if n.kind == NodeAction {
			d++
		}
		for _, t := range n.out {
			if d > depth[t] {
				depth[t] = d
			}
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	maxStage := 0
	for _, n := range a.nodes {
		if n.kind == NodeAction && depth[n]+1 > maxStage {
			maxStage = depth[n] + 1
		}
	}
	stages := make([][]string, maxStage)
	for _, n := range a.nodes {
		if n.kind == NodeAction {
			stages[depth[n]] = append(stages[depth[n]], n.name)
		}
	}
	for _, s := range stages {
		sort.Strings(s)
	}
	return stages, nil
}
