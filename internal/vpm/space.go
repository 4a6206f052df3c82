// Package vpm implements a model space in the spirit of VIATRA2's Visual and
// Precise Metamodeling (VPM) layer, which the paper uses as the intermediate
// representation for all model-to-model transformations (Section V-C):
//
//	"Models and metamodels are stored in the Visual and Precise
//	 Metamodeling (VPM) model space, which provides a flexible way to
//	 capture languages and models from various domains by identifying
//	 their entities and relations."
//
// The space is a tree of entities addressed by fully-qualified names (FQNs,
// dot-separated), with directed, named relations between arbitrary entities
// and an instance-of typing mechanism that links model elements to their
// metamodel entities. On top of the store, pattern.go provides declarative
// graph-pattern queries and transform.go a rule-based transformation engine,
// together replacing the VTCL language used in the paper.
package vpm

import (
	"fmt"
	"strings"
)

// Entity is one node of the model space tree. Entities are created through
// the ModelSpace and are addressed by their FQN, e.g.
// "models.infrastructure.t1".
type Entity struct {
	space    *ModelSpace
	name     string
	parent   *Entity
	children map[string]*Entity
	childSeq []string
	value    string
	types    []*Entity
	deleted  bool
}

// Name returns the entity's local name.
func (e *Entity) Name() string { return e.name }

// Parent returns the parent entity, or nil for the root.
func (e *Entity) Parent() *Entity { return e.parent }

// FQN returns the fully-qualified, dot-separated name of the entity. The
// root entity has the empty FQN.
func (e *Entity) FQN() string {
	if e.parent == nil {
		return ""
	}
	parts := []string{}
	for cur := e; cur.parent != nil; cur = cur.parent {
		parts = append(parts, cur.name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ".")
}

// Value returns the entity's string payload.
func (e *Entity) Value() string { return e.value }

// SetValue updates the entity's string payload and notifies subscribers.
func (e *Entity) SetValue(v string) {
	if e.value == v {
		return
	}
	e.value = v
	e.space.notify(Event{Kind: ValueChanged, Entity: e})
}

// Children returns the child entities in creation order.
func (e *Entity) Children() []*Entity {
	out := make([]*Entity, 0, len(e.childSeq))
	for _, n := range e.childSeq {
		out = append(out, e.children[n])
	}
	return out
}

// Child looks up a direct child by local name.
func (e *Entity) Child(name string) (*Entity, bool) {
	c, ok := e.children[name]
	return c, ok
}

// IsInstanceOf reports whether the entity is typed (directly) by the entity
// with the given FQN.
func (e *Entity) IsInstanceOf(typeFQN string) bool {
	for _, t := range e.types {
		if t.FQN() == typeFQN {
			return true
		}
	}
	return false
}

// IsDescendantOf reports whether the entity lies strictly below the given
// ancestor in the containment tree.
func (e *Entity) IsDescendantOf(anc *Entity) bool {
	for cur := e.parent; cur != nil; cur = cur.parent {
		if cur == anc {
			return true
		}
	}
	return false
}

// String renders the entity as its FQN (or "<root>").
func (e *Entity) String() string {
	if e.parent == nil {
		return "<root>"
	}
	return e.FQN()
}

// Relation is a named, directed edge between two entities. Relations may be
// navigated in both directions through the ModelSpace indexes.
type Relation struct {
	space   *ModelSpace
	name    string
	from    *Entity
	to      *Entity
	value   string
	deleted bool
}

// SetValue updates the relation's string payload.
func (r *Relation) SetValue(v string) { r.value = v }

// String renders the relation as "from -name-> to", followed by
// ` = "value"` when it carries a payload.
func (r *Relation) String() string {
	s := fmt.Sprintf("%s -%s-> %s", r.from, r.name, r.to)
	if r.value != "" {
		s += fmt.Sprintf(" = %q", r.value)
	}
	return s
}

// EventKind enumerates model-space change notifications.
type EventKind uint8

const (
	// EntityCreated fires after a new entity is inserted.
	EntityCreated EventKind = iota
	// EntityDeleted fires after an entity (and its subtree) is removed.
	EntityDeleted
	// RelationCreated fires after a new relation is inserted.
	RelationCreated
	// RelationDeleted fires after a relation is removed.
	RelationDeleted
	// ValueChanged fires after an entity value changes.
	ValueChanged
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EntityCreated:
		return "EntityCreated"
	case EntityDeleted:
		return "EntityDeleted"
	case RelationCreated:
		return "RelationCreated"
	case RelationDeleted:
		return "RelationDeleted"
	case ValueChanged:
		return "ValueChanged"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event describes one change to the model space.
type Event struct {
	Kind     EventKind
	Entity   *Entity   // set for entity and value events
	Relation *Relation // set for relation events
}

// ModelSpace is the root store: a containment tree of entities plus a
// relation store with from/to indexes.
type ModelSpace struct {
	root      *Entity
	relations map[*Relation]struct{}
	relSeq    []*Relation
	fromIdx   map[*Entity][]*Relation
	toIdx     map[*Entity][]*Relation
	listeners []func(Event)
	entities  int
	deadRels  int // deleted relations still occupying relSeq slots
}

// NewSpace creates an empty model space with a root entity.
func NewSpace() *ModelSpace {
	s := &ModelSpace{
		relations: make(map[*Relation]struct{}),
		fromIdx:   make(map[*Entity][]*Relation),
		toIdx:     make(map[*Entity][]*Relation),
	}
	s.root = &Entity{space: s, children: make(map[string]*Entity)}
	return s
}

// NumEntities returns the number of entities excluding the root.
func (s *ModelSpace) NumEntities() int { return s.entities }

// NumRelations returns the number of live relations.
func (s *ModelSpace) NumRelations() int { return len(s.relations) }

func (s *ModelSpace) notify(ev Event) {
	for _, fn := range s.listeners {
		fn(ev)
	}
}

// NewEntity creates a child entity under parent. Sibling names are unique;
// names must be non-empty and must not contain the FQN separator.
func (s *ModelSpace) NewEntity(parent *Entity, name string) (*Entity, error) {
	if parent == nil {
		parent = s.root
	}
	if parent.space != s || parent.deleted {
		return nil, fmt.Errorf("vpm: parent %q not live in this space", parent)
	}
	if _, dup := parent.children[name]; dup || name == "" || strings.Contains(name, ".") {
		return nil, NameError(parent.String(), name, dup)
	}
	e := &Entity{space: s, name: name, parent: parent}
	if parent.children == nil {
		parent.children = make(map[string]*Entity)
	}
	parent.children[name] = e
	parent.childSeq = append(parent.childSeq, name)
	s.entities++
	s.notify(Event{Kind: EntityCreated, Entity: e})
	return e, nil
}

// NameError returns the error NewEntity reports for a child named name under
// the entity whose FQN is parentFQN, or nil when the name is valid; dup says
// whether the parent already has a child of that name. Checks that vet names
// without building a space (package importers) call it to report the same
// text.
func NameError(parentFQN, name string, dup bool) error {
	switch {
	case name == "":
		return fmt.Errorf("vpm: empty entity name under %q", parentFQN)
	case strings.Contains(name, "."):
		return fmt.Errorf("vpm: entity name %q contains FQN separator", name)
	case dup:
		return fmt.Errorf("vpm: duplicate entity %q under %q", name, parentFQN)
	}
	return nil
}

// EnsureEntity returns the entity at the given FQN, creating any missing
// path segments. It is the idiomatic way importers materialise hierarchical
// namespaces ("models.uml.classes", …).
func (s *ModelSpace) EnsureEntity(fqn string) (*Entity, error) {
	if fqn == "" {
		return s.root, nil
	}
	cur := s.root
	for rest, more := fqn, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		next, ok := cur.children[seg]
		if !ok {
			var err error
			next, err = s.NewEntity(cur, seg)
			if err != nil {
				return nil, err
			}
		}
		cur = next
	}
	return cur, nil
}

// Lookup resolves an FQN to an entity.
func (s *ModelSpace) Lookup(fqn string) (*Entity, bool) {
	if fqn == "" {
		return s.root, true
	}
	cur := s.root
	for rest, more := fqn, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		next, ok := cur.children[seg]
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// MustLookup resolves an FQN and panics if absent; for transformation code
// where a missing namespace is a programming error.
func (s *ModelSpace) MustLookup(fqn string) *Entity {
	e, ok := s.Lookup(fqn)
	if !ok {
		panic(fmt.Sprintf("vpm: unknown FQN %q", fqn))
	}
	return e
}

// DeleteEntity removes an entity and its entire subtree, together with all
// relations incident to any removed entity. The root cannot be deleted.
func (s *ModelSpace) DeleteEntity(e *Entity) error {
	if e == nil || e.space != s {
		return fmt.Errorf("vpm: entity not in this space")
	}
	if e.parent == nil {
		return fmt.Errorf("vpm: cannot delete the root entity")
	}
	if e.deleted {
		return fmt.Errorf("vpm: entity %q already deleted", e)
	}
	delete(e.parent.children, e.name)
	for i, n := range e.parent.childSeq {
		if n == e.name {
			e.parent.childSeq = append(e.parent.childSeq[:i], e.parent.childSeq[i+1:]...)
			break
		}
	}
	var drop func(x *Entity)
	drop = func(x *Entity) {
		for _, c := range x.Children() {
			drop(c)
		}
		for _, r := range append(s.relationsFrom(x), s.relationsTo(x)...) {
			s.DeleteRelation(r)
		}
		x.deleted = true
		s.entities--
		s.notify(Event{Kind: EntityDeleted, Entity: x})
	}
	drop(e)
	return nil
}

// NewRelation creates a named, directed relation between two live entities.
func (s *ModelSpace) NewRelation(name string, from, to *Entity) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("vpm: empty relation name")
	}
	if from == nil || to == nil || from.space != s || to.space != s {
		return nil, fmt.Errorf("vpm: relation %q: ends not in this space", name)
	}
	if from.deleted || to.deleted {
		return nil, fmt.Errorf("vpm: relation %q: deleted end", name)
	}
	r := &Relation{space: s, name: name, from: from, to: to}
	s.relations[r] = struct{}{}
	s.relSeq = append(s.relSeq, r)
	s.fromIdx[from] = append(s.fromIdx[from], r)
	s.toIdx[to] = append(s.toIdx[to], r)
	s.notify(Event{Kind: RelationCreated, Relation: r})
	return r, nil
}

// DeleteRelation removes a relation. Deleting an already-deleted relation is
// a no-op.
func (s *ModelSpace) DeleteRelation(r *Relation) {
	if r == nil || r.space != s || r.deleted {
		return
	}
	r.deleted = true
	delete(s.relations, r)
	if rs := removeRel(s.fromIdx[r.from], r); len(rs) == 0 {
		delete(s.fromIdx, r.from)
	} else {
		s.fromIdx[r.from] = rs
	}
	if rs := removeRel(s.toIdx[r.to], r); len(rs) == 0 {
		delete(s.toIdx, r.to)
	} else {
		s.toIdx[r.to] = rs
	}
	s.deadRels++
	s.notify(Event{Kind: RelationDeleted, Relation: r})
	// Compact the creation-order log once deleted slots outnumber live
	// relations, so create/delete churn does not grow it without bound.
	if s.deadRels >= 64 && s.deadRels > len(s.relations) {
		s.compactRelSeq()
	}
}

func (s *ModelSpace) compactRelSeq() {
	w := 0
	for _, r := range s.relSeq {
		if r.deleted {
			continue
		}
		s.relSeq[w] = r
		w++
	}
	for i := w; i < len(s.relSeq); i++ {
		s.relSeq[i] = nil
	}
	s.relSeq = s.relSeq[:w]
	s.deadRels = 0
}

func removeRel(rs []*Relation, r *Relation) []*Relation {
	for i, x := range rs {
		if x == r {
			return append(rs[:i], rs[i+1:]...)
		}
	}
	return rs
}

func (s *ModelSpace) relationsFrom(e *Entity) []*Relation {
	rs := s.fromIdx[e]
	out := make([]*Relation, len(rs))
	copy(out, rs)
	return out
}

func (s *ModelSpace) relationsTo(e *Entity) []*Relation {
	rs := s.toIdx[e]
	out := make([]*Relation, len(rs))
	copy(out, rs)
	return out
}

// RelationsFrom returns the live relations with the given source, optionally
// filtered by name ("" matches any name).
func (s *ModelSpace) RelationsFrom(e *Entity, name string) []*Relation {
	return filterRels(s.fromIdx[e], name)
}

func filterRels(rs []*Relation, name string) []*Relation {
	var out []*Relation
	for _, r := range rs {
		if name == "" || r.name == name {
			out = append(out, r)
		}
	}
	return out
}

// Relations returns all live relations in creation order, optionally
// filtered by name.
func (s *ModelSpace) Relations(name string) []*Relation {
	var out []*Relation
	for _, r := range s.relSeq {
		if r.deleted {
			continue
		}
		if name == "" || r.name == name {
			out = append(out, r)
		}
	}
	return out
}

// instanceOfRelation is the reserved relation name implementing VPM typing.
const instanceOfRelation = "instanceOf"

// SetInstanceOf types inst by typ, recording both the typing relation and
// the entity-level type cache used by pattern matching.
func (s *ModelSpace) SetInstanceOf(inst, typ *Entity) error {
	if inst == nil || typ == nil || inst.space != s || typ.space != s {
		return fmt.Errorf("vpm: instanceOf: entities not in this space")
	}
	for _, t := range inst.types {
		if t == typ {
			return fmt.Errorf("vpm: %q already instance of %q", inst, typ)
		}
	}
	if _, err := s.NewRelation(instanceOfRelation, inst, typ); err != nil {
		return err
	}
	inst.types = append(inst.types, typ)
	return nil
}

// InstancesOf returns all entities typed by the entity at the given FQN, in
// typing order.
func (s *ModelSpace) InstancesOf(typeFQN string) []*Entity {
	typ, ok := s.Lookup(typeFQN)
	if !ok {
		return nil
	}
	var out []*Entity
	for _, r := range s.toIdx[typ] {
		if r.name == instanceOfRelation && !r.deleted {
			out = append(out, r.from)
		}
	}
	return out
}

// Walk visits every entity below (and excluding) the root in depth-first,
// creation order, calling fn; returning false from fn stops the walk.
func (s *ModelSpace) Walk(fn func(*Entity) bool) {
	var rec func(e *Entity) bool
	rec = func(e *Entity) bool {
		for _, c := range e.Children() {
			if !fn(c) {
				return false
			}
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(s.root)
}
