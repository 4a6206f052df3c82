package uml

import (
	"fmt"
)

// Model is the root container of a UML model: profiles, classes,
// associations, object diagrams and activities. It corresponds to the set of
// .uml resources the paper feeds into the VIATRA2 importer (Step 5 of the
// methodology): "Profiles, class diagram, object diagram and activity
// diagram".
type Model struct {
	name         string
	profiles     map[string]*Profile
	profileOrder []string
	classes      map[string]*Class
	classOrder   []string
	assocs       map[string]*Association
	assocOrder   []string
	diagrams     []*ObjectDiagram
	activities   map[string]*Activity
	actOrder     []string

	// Slabs that AddClass, AddAssociation and Apply take their next
	// element from, and that the decoder carves application and value
	// lists from, while room is left; the decoder sizes them exactly.
	// Like the diagram slabs, they are never reallocated.
	classSlab   []Class
	assocSlab   []Association
	appSlab     []StereotypeApplication
	appListSlab []*StereotypeApplication
	valSlab     []attrValue
}

// slot returns the next free element of slab, or a new one once the slab
// is full. Slab elements never move, so the pointer stays valid.
func slot[T any](slab *[]T) *T {
	n := len(*slab)
	if n == cap(*slab) {
		return new(T)
	}
	*slab = (*slab)[:n+1]
	return &(*slab)[n]
}

// carve returns an empty slice with room for n elements taken from slab
// while it has that room, else a new one. The full slice expression caps
// the carve at n, so an append past it reallocates instead of overwriting
// the next carve.
func carve[T any](slab *[]T, n int) []T {
	k := len(*slab)
	if cap(*slab)-k < n {
		return make([]T, 0, n)
	}
	*slab = (*slab)[:k+n]
	return (*slab)[k : k : k+n]
}

// NewModel creates an empty model.
func NewModel(name string) *Model { return newModel(name, 0, 0) }

// newModel creates an empty model whose class and association tables and
// slabs have room for nClasses and nAssocs elements.
func newModel(name string, nClasses, nAssocs int) *Model {
	return &Model{
		name:       name,
		profiles:   make(map[string]*Profile),
		classes:    make(map[string]*Class, nClasses),
		classOrder: make([]string, 0, nClasses),
		classSlab:  make([]Class, 0, nClasses),
		assocs:     make(map[string]*Association, nAssocs),
		assocOrder: make([]string, 0, nAssocs),
		assocSlab:  make([]Association, 0, nAssocs),
		activities: make(map[string]*Activity),
	}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// AddProfile registers a profile with the model so that its stereotypes can
// be applied to model elements.
func (m *Model) AddProfile(p *Profile) error {
	if p == nil {
		return fmt.Errorf("uml: model %s: nil profile", m.name)
	}
	if _, dup := m.profiles[p.Name()]; dup {
		return fmt.Errorf("uml: model %s: duplicate profile %s", m.name, p.Name())
	}
	m.profiles[p.Name()] = p
	m.profileOrder = append(m.profileOrder, p.Name())
	return nil
}

// Profiles returns the registered profiles in registration order.
func (m *Model) Profiles() []*Profile {
	out := make([]*Profile, 0, len(m.profileOrder))
	for _, n := range m.profileOrder {
		out = append(out, m.profiles[n])
	}
	return out
}

// FindStereotype resolves a stereotype by name across all registered
// profiles, in registration order.
func (m *Model) FindStereotype(name string) (*Stereotype, bool) {
	for _, pn := range m.profileOrder {
		if st, ok := m.profiles[pn].Stereotype(name); ok {
			return st, true
		}
	}
	return nil, false
}

// AddClass creates a class in the model. Class names are unique.
func (m *Model) AddClass(name string) (*Class, error) {
	if name == "" {
		return nil, fmt.Errorf("uml: model %s: empty class name", m.name)
	}
	if _, dup := m.classes[name]; dup {
		return nil, fmt.Errorf("uml: model %s: duplicate class %s", m.name, name)
	}
	c := slot(&m.classSlab)
	*c = Class{name: name, model: m}
	m.classes[name] = c
	m.classOrder = append(m.classOrder, name)
	return c, nil
}

// Class looks up a class by name.
func (m *Model) Class(name string) (*Class, bool) {
	c, ok := m.classes[name]
	return c, ok
}

// MustClass looks up a class and panics if it is absent; intended for model
// construction code where absence is a programming error.
func (m *Model) MustClass(name string) *Class {
	c, ok := m.classes[name]
	if !ok {
		panic(fmt.Sprintf("uml: model %s: unknown class %s", m.name, name))
	}
	return c
}

// Classes returns all classes in definition order.
func (m *Model) Classes() []*Class {
	out := make([]*Class, 0, len(m.classOrder))
	for _, n := range m.classOrder {
		out = append(out, m.classes[n])
	}
	return out
}

// AddAssociation creates a named association between two classes.
func (m *Model) AddAssociation(name string, a, b *Class) (*Association, error) {
	if name == "" {
		return nil, fmt.Errorf("uml: model %s: empty association name", m.name)
	}
	if a == nil || b == nil {
		return nil, fmt.Errorf("uml: model %s: association %s: nil end", m.name, name)
	}
	if a.model != m || b.model != m {
		return nil, fmt.Errorf("uml: model %s: association %s: end class from another model", m.name, name)
	}
	if _, dup := m.assocs[name]; dup {
		return nil, fmt.Errorf("uml: model %s: duplicate association %s", m.name, name)
	}
	as := slot(&m.assocSlab)
	*as = Association{name: name, model: m, endA: a, endB: b}
	m.assocs[name] = as
	m.assocOrder = append(m.assocOrder, name)
	return as, nil
}

// Association looks up an association by name.
func (m *Model) Association(name string) (*Association, bool) {
	a, ok := m.assocs[name]
	return a, ok
}

// Associations returns all associations in definition order.
func (m *Model) Associations() []*Association {
	out := make([]*Association, 0, len(m.assocOrder))
	for _, n := range m.assocOrder {
		out = append(out, m.assocs[n])
	}
	return out
}

// AssociationBetween returns the first association joining the two classes,
// in either orientation.
func (m *Model) AssociationBetween(a, b *Class) (*Association, bool) {
	for _, n := range m.assocOrder {
		if m.assocs[n].Joins(a, b) {
			return m.assocs[n], true
		}
	}
	return nil, false
}

// Diagrams returns the object diagrams of the model in creation order.
func (m *Model) Diagrams() []*ObjectDiagram {
	out := make([]*ObjectDiagram, len(m.diagrams))
	copy(out, m.diagrams)
	return out
}

// Diagram looks up an object diagram by name.
func (m *Model) Diagram(name string) (*ObjectDiagram, bool) {
	for _, d := range m.diagrams {
		if d.name == name {
			return d, true
		}
	}
	return nil, false
}

// Activities returns the activity diagrams of the model in creation order.
func (m *Model) Activities() []*Activity {
	out := make([]*Activity, 0, len(m.actOrder))
	for _, n := range m.actOrder {
		out = append(out, m.activities[n])
	}
	return out
}

// Activity looks up an activity by name.
func (m *Model) Activity(name string) (*Activity, bool) {
	a, ok := m.activities[name]
	return a, ok
}
