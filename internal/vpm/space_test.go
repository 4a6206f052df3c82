package vpm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"upsim/internal/testutil"
)

func TestEntityTreeBasics(t *testing.T) {
	s := NewSpace()
	models, err := s.NewEntity(nil, "models")
	if err != nil {
		t.Fatal(err)
	}
	infra, err := s.NewEntity(models, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.NewEntity(infra, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if got := t1.FQN(); got != "models.infrastructure.t1" {
		t.Errorf("FQN = %q", got)
	}
	if s.Root().FQN() != "" {
		t.Errorf("root FQN = %q", s.Root().FQN())
	}
	if t1.Parent() != infra || infra.Parent() != models || models.Parent() != s.Root() {
		t.Error("parent chain broken")
	}
	if got, ok := s.Lookup("models.infrastructure.t1"); !ok || got != t1 {
		t.Error("Lookup failed")
	}
	if _, ok := s.Lookup("models.ghost"); ok {
		t.Error("Lookup(ghost) should fail")
	}
	if got, ok := s.Lookup(""); !ok || got != s.Root() {
		t.Error("Lookup of empty FQN should return root")
	}
	if s.NumEntities() != 3 {
		t.Errorf("NumEntities = %d", s.NumEntities())
	}
	if !t1.IsDescendantOf(models) || !t1.IsDescendantOf(s.Root()) {
		t.Error("IsDescendantOf broken")
	}
	if t1.IsDescendantOf(t1) {
		t.Error("entity is not its own descendant")
	}
	if c, ok := infra.Child("t1"); !ok || c != t1 {
		t.Error("Child lookup failed")
	}
	if t1.String() != "models.infrastructure.t1" || s.Root().String() != "<root>" {
		t.Error("String rendering wrong")
	}
}

func TestNewEntityErrors(t *testing.T) {
	s := NewSpace()
	m, _ := s.NewEntity(nil, "m")
	if _, err := s.NewEntity(m, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewEntity(m, "m1"); err == nil {
		t.Error("duplicate sibling should fail")
	}
	if _, err := s.NewEntity(m, ""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := s.NewEntity(m, "a.b"); err == nil {
		t.Error("name with separator should fail")
	}
	other := NewSpace()
	if _, err := s.NewEntity(other.Root(), "x"); err == nil {
		t.Error("cross-space parent should fail")
	}
}

func TestEnsureEntity(t *testing.T) {
	s := NewSpace()
	e, err := s.EnsureEntity("a.b.c")
	if err != nil {
		t.Fatal(err)
	}
	if e.FQN() != "a.b.c" {
		t.Errorf("FQN = %q", e.FQN())
	}
	again, err := s.EnsureEntity("a.b.c")
	if err != nil {
		t.Fatal(err)
	}
	if again != e {
		t.Error("EnsureEntity must be idempotent")
	}
	if s.NumEntities() != 3 {
		t.Errorf("NumEntities = %d, want 3", s.NumEntities())
	}
	if root, err := s.EnsureEntity(""); err != nil || root != s.Root() {
		t.Error("EnsureEntity of empty FQN should return root")
	}
}

// TestLookupSegments: Lookup and EnsureEntity walk FQN segments in place —
// empty segments still resolve to nothing, and a hit allocates nothing.
func TestLookupSegments(t *testing.T) {
	s := NewSpace()
	e, err := s.EnsureEntity("a.b.c")
	if err != nil {
		t.Fatal(err)
	}
	for _, fqn := range []string{"a.b.", ".a", "a..c", "a.b.c.d"} {
		if _, ok := s.Lookup(fqn); ok {
			t.Errorf("Lookup(%q) resolved", fqn)
		}
	}
	for _, fqn := range []string{"a.b.", "a..c"} {
		if _, err := s.EnsureEntity(fqn); err == nil {
			t.Errorf("EnsureEntity(%q) accepted an empty segment", fqn)
		}
	}
	if testutil.RaceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, ok := s.Lookup("a.b.c"); !ok || got != e {
			t.Fatal("Lookup(a.b.c) missed")
		}
	}); allocs != 0 {
		t.Errorf("Lookup: %.0f allocs, want 0", allocs)
	}
}

func TestEntityValue(t *testing.T) {
	s := NewSpace()
	e, _ := s.NewEntity(nil, "e")
	if e.Value() != "" {
		t.Errorf("fresh Value = %q", e.Value())
	}
	e.SetValue("x")
	e.SetValue("y")
	if e.Value() != "y" {
		t.Errorf("Value = %q", e.Value())
	}
}

func TestRelations(t *testing.T) {
	s := NewSpace()
	a, _ := s.NewEntity(nil, "a")
	b, _ := s.NewEntity(nil, "b")
	c, _ := s.NewEntity(nil, "c")
	ab, err := s.NewRelation("link", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRelation("link", b, c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRelation("owns", a, c); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Relations("link")); got != 2 {
		t.Errorf("Relations(link) = %d", got)
	}
	if got := len(s.Relations("")); got != 3 {
		t.Errorf("Relations() = %d", got)
	}
	if got := len(s.RelationsFrom(a, "")); got != 2 {
		t.Errorf("RelationsFrom(a) = %d", got)
	}
	if got := len(s.RelationsFrom(a, "link")); got != 1 {
		t.Errorf("RelationsFrom(a, link) = %d", got)
	}
	if got := len(s.RelationsTo(c, "")); got != 2 {
		t.Errorf("RelationsTo(c) = %d", got)
	}
	if got := len(s.RelationsOf(b, "link")); got != 2 {
		t.Errorf("RelationsOf(b, link) = %d", got)
	}
	if ab.From() != a || ab.To() != b || ab.Name() != "link" {
		t.Error("relation accessors broken")
	}
	ab.SetValue("10G")
	if ab.Value() != "10G" {
		t.Error("relation value broken")
	}
	if !strings.Contains(ab.String(), "-link->") || !strings.HasSuffix(ab.String(), ` = "10G"`) {
		t.Errorf("relation String = %q", ab.String())
	}
	s.deleteRelation(ab)
	s.deleteRelation(ab) // idempotent
	if got := len(s.Relations("link")); got != 1 {
		t.Errorf("after delete Relations(link) = %d", got)
	}
	if got := s.NumRelations(); got != 2 {
		t.Errorf("NumRelations = %d", got)
	}
}

func TestRelationErrors(t *testing.T) {
	s := NewSpace()
	a, _ := s.NewEntity(nil, "a")
	if _, err := s.NewRelation("", a, a); err == nil {
		t.Error("empty relation name should fail")
	}
	if _, err := s.NewRelation("r", nil, a); err == nil {
		t.Error("nil end should fail")
	}
	other := NewSpace()
	ob, _ := other.NewEntity(nil, "b")
	if _, err := s.NewRelation("r", a, ob); err == nil {
		t.Error("cross-space relation should fail")
	}
	b, _ := s.NewEntity(nil, "b")
	if err := s.DeleteEntity(b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRelation("r", a, b); err == nil {
		t.Error("relation to deleted entity should fail")
	}
}

func TestDeleteEntitySubtree(t *testing.T) {
	s := NewSpace()
	a, _ := s.NewEntity(nil, "a")
	b, _ := s.NewEntity(a, "b")
	c, _ := s.NewEntity(b, "c")
	ext, _ := s.NewEntity(nil, "ext")
	if _, err := s.NewRelation("r", ext, c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRelation("r", b, ext); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteEntity(a); err != nil {
		t.Fatal(err)
	}
	if s.NumEntities() != 1 {
		t.Errorf("NumEntities = %d, want 1 (ext)", s.NumEntities())
	}
	if s.NumRelations() != 0 {
		t.Errorf("NumRelations = %d, want 0", s.NumRelations())
	}
	if _, ok := s.Lookup("a.b.c"); ok {
		t.Error("deleted subtree still resolvable")
	}
	if err := s.DeleteEntity(a); err == nil {
		t.Error("double delete should fail")
	}
	if err := s.DeleteEntity(s.Root()); err == nil {
		t.Error("deleting root should fail")
	}
	if err := s.DeleteEntity(nil); err == nil {
		t.Error("deleting nil should fail")
	}
}

func TestInstanceOf(t *testing.T) {
	s := NewSpace()
	meta, _ := s.EnsureEntity("meta.Device")
	t1, _ := s.EnsureEntity("models.t1")
	t2, _ := s.EnsureEntity("models.t2")
	if err := s.SetInstanceOf(t1, meta); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInstanceOf(t2, meta); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInstanceOf(t1, meta); err == nil {
		t.Error("double typing should fail")
	}
	if !t1.IsInstanceOf("meta.Device") {
		t.Error("IsInstanceOf failed")
	}
	if t1.IsInstanceOf("meta.Ghost") {
		t.Error("IsInstanceOf(ghost) must be false")
	}
	insts := s.InstancesOf("meta.Device")
	if len(insts) != 2 || insts[0] != t1 || insts[1] != t2 {
		t.Errorf("InstancesOf = %v", insts)
	}
	if got := s.InstancesOf("meta.Ghost"); got != nil {
		t.Errorf("InstancesOf(ghost) = %v", got)
	}
	if got := t1.Types(); len(got) != 1 || got[0] != meta {
		t.Errorf("Types = %v", got)
	}
	if err := s.SetInstanceOf(nil, meta); err == nil {
		t.Error("nil instance should fail")
	}
}

func TestWalk(t *testing.T) {
	s := NewSpace()
	for _, fqn := range []string{"a.x", "a.y", "b"} {
		if _, err := s.EnsureEntity(fqn); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	s.Walk(func(e *Entity) bool {
		seen = append(seen, e.FQN())
		return true
	})
	want := []string{"a", "a.x", "a.y", "b"}
	if len(seen) != len(want) {
		t.Fatalf("Walk visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("Walk[%d] = %s, want %s", i, seen[i], want[i])
		}
	}
	// Early stop.
	count := 0
	s.Walk(func(e *Entity) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("Walk early stop visited %d", count)
	}
}

func TestMustLookupPanics(t *testing.T) {
	s := NewSpace()
	defer func() {
		if recover() == nil {
			t.Error("MustLookup should panic on unknown FQN")
		}
	}()
	s.MustLookup("nope")
}

// Property: EnsureEntity then Lookup round-trips for arbitrary well-formed
// FQN paths.
func TestEnsureLookupProperty(t *testing.T) {
	f := func(segs [3]uint8) bool {
		s := NewSpace()
		names := []string{"a", "b", "c", "d", "e"}
		fqn := names[int(segs[0])%5] + "." + names[int(segs[1])%5] + "." + names[int(segs[2])%5]
		e, err := s.EnsureEntity(fqn)
		if err != nil {
			return false
		}
		got, ok := s.Lookup(fqn)
		return ok && got == e && e.FQN() == fqn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDump(t *testing.T) {
	s := NewSpace()
	meta, _ := s.EnsureEntity("meta.Device")
	t1, _ := s.EnsureEntity("net.t1")
	_ = s.SetInstanceOf(t1, meta)
	t1.SetValue("requester")
	out := s.Dump()
	for _, want := range []string{"meta\n", "  Device\n", "net\n", `  t1 = "requester" : Device`} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
}

func TestDeleteEntityRecyclesSlots(t *testing.T) {
	s := NewSpace()
	parent, err := s.EnsureEntity("models.m")
	if err != nil {
		t.Fatalf("EnsureEntity: %v", err)
	}
	for i := 0; i < 1000; i++ {
		e, err := s.NewEntity(parent, "scratch")
		if err != nil {
			t.Fatalf("NewEntity %d: %v", i, err)
		}
		if err := s.DeleteEntity(e); err != nil {
			t.Fatalf("DeleteEntity: %v", err)
		}
	}
	// The parent's child slot is freed on delete: churn neither blocks the
	// name nor grows the creation-order list.
	if len(parent.children) != 0 || len(parent.childSeq) != 0 {
		t.Fatalf("churn left %d children, %d ordered names under models.m", len(parent.children), len(parent.childSeq))
	}
	if s.NumEntities() != 2 { // "models" and "models.m"
		t.Fatalf("NumEntities = %d, want 2", s.NumEntities())
	}
}

func TestRelationChurnCompactsRelSeq(t *testing.T) {
	s := NewSpace()
	a, _ := s.EnsureEntity("a")
	b, _ := s.EnsureEntity("b")
	for i := 0; i < 5000; i++ {
		r, err := s.NewRelation("link", a, b)
		if err != nil {
			t.Fatalf("NewRelation: %v", err)
		}
		s.deleteRelation(r)
	}
	if got := len(s.relSeq); got > 2*64 {
		t.Fatalf("relSeq retained %d slots after churn, want compaction to bound it", got)
	}
	if s.NumRelations() != 0 {
		t.Fatalf("NumRelations = %d, want 0", s.NumRelations())
	}
}

func TestDeletedSubtreeRelationsGone(t *testing.T) {
	s := NewSpace()
	keep, _ := s.EnsureEntity("keep")
	sub, _ := s.EnsureEntity("tmp.child")
	if _, err := s.NewRelation("link", keep, sub); err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	tmp, _ := s.Lookup("tmp")
	if err := s.DeleteEntity(tmp); err != nil {
		t.Fatalf("DeleteEntity: %v", err)
	}
	if got := s.RelationsFrom(keep, ""); len(got) != 0 {
		t.Fatalf("RelationsFrom(keep) = %v after subtree delete, want none", got)
	}
	if got := len(s.Relations("")); got != 0 {
		t.Fatalf("Relations() = %d live after subtree delete, want 0", got)
	}
	// The index entry for keep must be gone, not an empty slice, so index
	// maps do not accumulate keys of entities whose relations all went.
	if _, ok := s.fromIdx[keep]; ok {
		t.Fatal("fromIdx retains an empty entry after its last relation was deleted")
	}
}

func TestNameErrorMatchesNewEntity(t *testing.T) {
	s := NewSpace()
	parent, _ := s.EnsureEntity("models.m")
	if _, err := s.NewEntity(parent, "taken"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a.b", "taken", "free"} {
		_, dup := parent.Child(name)
		want := NameError("models.m", name, dup)
		_, got := s.NewEntity(parent, name)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("name %q: NewEntity error %v, NameError %v", name, got, want)
		}
	}
}

// Name returns the relation name (its kind, e.g. "link" or "instanceOf").
func (r *Relation) Name() string { return r.name }

// From returns the source entity.
func (r *Relation) From() *Entity { return r.from }

// To returns the target entity.
func (r *Relation) To() *Entity { return r.to }

// Value returns the relation's string payload.
func (r *Relation) Value() string { return r.value }

// Root returns the root entity.
func (s *ModelSpace) Root() *Entity { return s.root }

// RelationsTo returns the live relations with the given target, optionally
// filtered by name.
func (s *ModelSpace) RelationsTo(e *Entity, name string) []*Relation {
	return filterRels(s.toIdx[e], name)
}

// RelationsOf returns all live relations incident to the entity in either
// direction, optionally filtered by name.
func (s *ModelSpace) RelationsOf(e *Entity, name string) []*Relation {
	out := filterRels(s.fromIdx[e], name)
	for _, r := range s.toIdx[e] {
		if r.from == r.to {
			continue // self-relation already included from the from-index
		}
		if name == "" || r.name == name {
			out = append(out, r)
		}
	}
	return out
}

// Dump renders the containment tree (entity names, values and types) as an
// indented listing — the quickest way to inspect what the importers and
// transformations materialised.
func (s *ModelSpace) Dump() string {
	var b strings.Builder
	var rec func(e *Entity, depth int)
	rec = func(e *Entity, depth int) {
		for _, c := range e.Children() {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(c.Name())
			if v := c.Value(); v != "" {
				fmt.Fprintf(&b, " = %q", v)
			}
			if ts := c.Types(); len(ts) > 0 {
				names := make([]string, 0, len(ts))
				for _, t := range ts {
					names = append(names, t.Name())
				}
				fmt.Fprintf(&b, " : %s", strings.Join(names, ","))
			}
			b.WriteByte('\n')
			rec(c, depth+1)
		}
	}
	rec(s.root, 0)
	return b.String()
}

// Types returns the entities this entity is an instance of.
func (e *Entity) Types() []*Entity {
	out := make([]*Entity, len(e.types))
	copy(out, e.types)
	return out
}
