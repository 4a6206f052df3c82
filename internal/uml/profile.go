package uml

import (
	"fmt"
	"sort"
)

// Metaclass identifies the UML metaclass that a stereotype extends. The
// methodology only ever extends Class and Association (Figure 6: the Device
// stereotype extends Class, the Connector stereotype extends Association).
type Metaclass uint8

const (
	// MetaclassNone marks an abstract stereotype that extends nothing
	// directly; it can only be specialised, never applied (e.g. the
	// abstract Component and NetworkDevice stereotypes in Figures 6-7).
	MetaclassNone Metaclass = iota
	// MetaclassClass allows application to classes.
	MetaclassClass
	// MetaclassAssociation allows application to associations.
	MetaclassAssociation
)

// String returns the UML name of the metaclass.
func (m Metaclass) String() string {
	switch m {
	case MetaclassNone:
		return "None"
	case MetaclassClass:
		return "Class"
	case MetaclassAssociation:
		return "Association"
	}
	return fmt.Sprintf("Metaclass(%d)", uint8(m))
}

// ParseMetaclass converts a metaclass name into a Metaclass.
func ParseMetaclass(s string) (Metaclass, error) {
	switch s {
	case "Class":
		return MetaclassClass, nil
	case "Association":
		return MetaclassAssociation, nil
	case "None", "":
		return MetaclassNone, nil
	}
	return MetaclassNone, fmt.Errorf("uml: unknown metaclass %q", s)
}

// AttributeDef declares one stereotype attribute: a name, a primitive type
// and an optional default value (e.g. MTBF:Real in the availability profile).
type AttributeDef struct {
	Name    string
	Kind    ValueKind
	Default Value
}

// Stereotype specifies a new modelling element, following UML profile
// semantics: it declares attributes that every extended element inherits,
// it may specialise another stereotype (generalisation), and it may be
// abstract, in which case it only serves as a common parent.
type Stereotype struct {
	name       string
	profile    *Profile
	extends    Metaclass
	abstract   bool
	parent     *Stereotype
	attributes []AttributeDef
}

// Name returns the stereotype name, e.g. "Component" or "Switch".
func (s *Stereotype) Name() string { return s.name }

// Profile returns the profile that owns the stereotype.
func (s *Stereotype) Profile() *Profile { return s.profile }

// Extends reports the metaclass the stereotype (or its nearest concrete
// ancestor constraint) extends.
func (s *Stereotype) Extends() Metaclass {
	for st := s; st != nil; st = st.parent {
		if st.extends != MetaclassNone {
			return st.extends
		}
	}
	return MetaclassNone
}

// IsAbstract reports whether the stereotype can be applied directly.
func (s *Stereotype) IsAbstract() bool { return s.abstract }

// Parent returns the stereotype this one specialises, or nil.
func (s *Stereotype) Parent() *Stereotype { return s.parent }

// OwnAttributes returns the attributes declared directly on this stereotype,
// in declaration order.
func (s *Stereotype) OwnAttributes() []AttributeDef {
	out := make([]AttributeDef, len(s.attributes))
	copy(out, s.attributes)
	return out
}

// AllAttributes returns the attributes of the stereotype including every
// inherited attribute, parents first, in declaration order.
func (s *Stereotype) AllAttributes() []AttributeDef {
	var out []AttributeDef
	s.EachAttribute(func(def AttributeDef) { out = append(out, def) })
	return out
}

// EachAttribute calls fn with each attribute AllAttributes returns, in the
// same order, without allocating.
func (s *Stereotype) EachAttribute(fn func(AttributeDef)) {
	if s.parent != nil {
		s.parent.EachAttribute(fn)
	}
	for _, def := range s.attributes {
		fn(def)
	}
}

// Attribute looks up an attribute definition by name, searching the
// generalisation chain bottom-up.
func (s *Stereotype) Attribute(name string) (AttributeDef, bool) {
	for st := s; st != nil; st = st.parent {
		for _, def := range st.attributes {
			if def.Name == name {
				return def, true
			}
		}
	}
	return AttributeDef{}, false
}

// IsKindOf reports whether the stereotype is the named stereotype or
// specialises it (transitively).
func (s *Stereotype) IsKindOf(name string) bool {
	for st := s; st != nil; st = st.parent {
		if st.name == name {
			return true
		}
	}
	return false
}

// AddAttribute declares an attribute on the stereotype. Declaring a name
// that already exists anywhere on the generalisation chain is an error, so
// that inherited attributes can never be shadowed.
func (s *Stereotype) AddAttribute(name string, kind ValueKind) error {
	return s.AddAttributeDefault(name, kind, Value{})
}

// AddAttributeDefault declares an attribute with a default value. The
// default, when present, must match the declared kind.
func (s *Stereotype) AddAttributeDefault(name string, kind ValueKind, def Value) error {
	if name == "" {
		return fmt.Errorf("uml: stereotype %s: empty attribute name", s.name)
	}
	if kind == KindNone {
		return fmt.Errorf("uml: stereotype %s: attribute %s has no type", s.name, name)
	}
	if _, ok := s.Attribute(name); ok {
		return fmt.Errorf("uml: stereotype %s: duplicate attribute %s", s.name, name)
	}
	if !def.IsZero() && def.Kind() != kind {
		return fmt.Errorf("uml: stereotype %s: attribute %s default is %s, want %s",
			s.name, name, def.Kind(), kind)
	}
	s.attributes = append(s.attributes, AttributeDef{Name: name, Kind: kind, Default: def})
	return nil
}

// Profile groups a coherent set of stereotypes, mirroring a UML profile such
// as the availability profile of Figure 6 or the network profile of Figure 7.
type Profile struct {
	name        string
	stereotypes map[string]*Stereotype
	order       []string
}

// NewProfile creates an empty profile with the given name.
func NewProfile(name string) *Profile {
	return &Profile{name: name, stereotypes: make(map[string]*Stereotype)}
}

// Name returns the profile name.
func (p *Profile) Name() string { return p.name }

// DefineStereotype adds a concrete stereotype extending the given metaclass.
func (p *Profile) DefineStereotype(name string, extends Metaclass) (*Stereotype, error) {
	return p.define(name, extends, false, nil)
}

// DefineAbstractStereotype adds an abstract stereotype. It may extend a
// metaclass (constraining all its children) or none.
func (p *Profile) DefineAbstractStereotype(name string, extends Metaclass) (*Stereotype, error) {
	return p.define(name, extends, true, nil)
}

// DefineSubStereotype adds a stereotype specialising parent. If extends is
// MetaclassNone the child inherits the parent's extension constraint.
func (p *Profile) DefineSubStereotype(name string, extends Metaclass, parent *Stereotype) (*Stereotype, error) {
	if parent == nil {
		return nil, fmt.Errorf("uml: profile %s: stereotype %s: nil parent", p.name, name)
	}
	if parent.profile != p {
		return nil, fmt.Errorf("uml: profile %s: stereotype %s: parent %s belongs to profile %s",
			p.name, name, parent.name, parent.profile.name)
	}
	if extends != MetaclassNone && parent.Extends() != MetaclassNone && parent.Extends() != extends {
		return nil, fmt.Errorf("uml: profile %s: stereotype %s extends %s but parent %s extends %s",
			p.name, name, extends, parent.name, parent.Extends())
	}
	return p.define(name, extends, false, parent)
}

// DefineAbstractSubStereotype adds an abstract specialisation of parent
// (e.g. Computer specialises NetworkDevice and is itself abstract).
func (p *Profile) DefineAbstractSubStereotype(name string, extends Metaclass, parent *Stereotype) (*Stereotype, error) {
	st, err := p.DefineSubStereotype(name, extends, parent)
	if err != nil {
		return nil, err
	}
	st.abstract = true
	return st, nil
}

func (p *Profile) define(name string, extends Metaclass, abstract bool, parent *Stereotype) (*Stereotype, error) {
	if name == "" {
		return nil, fmt.Errorf("uml: profile %s: empty stereotype name", p.name)
	}
	if _, dup := p.stereotypes[name]; dup {
		return nil, fmt.Errorf("uml: profile %s: duplicate stereotype %s", p.name, name)
	}
	st := &Stereotype{
		name:     name,
		profile:  p,
		extends:  extends,
		abstract: abstract,
		parent:   parent,
	}
	p.stereotypes[name] = st
	p.order = append(p.order, name)
	return st, nil
}

// Stereotype looks up a stereotype by name.
func (p *Profile) Stereotype(name string) (*Stereotype, bool) {
	st, ok := p.stereotypes[name]
	return st, ok
}

// Stereotypes returns all stereotypes in definition order.
func (p *Profile) Stereotypes() []*Stereotype {
	out := make([]*Stereotype, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.stereotypes[n])
	}
	return out
}

// StereotypeApplication records the application of a stereotype to a model
// element together with the values chosen for the stereotype attributes.
// Because the methodology requires classes to carry only static attributes
// (Section V-A1), applications live on classes and associations, and
// instances inherit them unmodified.
type StereotypeApplication struct {
	stereotype *Stereotype
	// values holds the assigned attributes, defaults included, one entry
	// per name. Its capacity is the stereotype's attribute count when the
	// application is made, which bounds its length until an attribute is
	// added to the stereotype later.
	values []attrValue
}

type attrValue struct {
	name  string
	value Value
}

// newApplication makes an application of st holding st's defaults. The
// application and its value slice come from the model's slabs while they
// have room (see Model.appSlab).
func (m *Model) newApplication(st *Stereotype) *StereotypeApplication {
	app := slot(&m.appSlab)
	app.stereotype = st
	app.values = carve(&m.valSlab, st.numAttributes())
	st.EachAttribute(func(def AttributeDef) {
		if !def.Default.IsZero() {
			app.values = append(app.values, attrValue{def.Name, def.Default})
		}
	})
	return app
}

// numAttributes returns len(AllAttributes()) without allocating.
func (s *Stereotype) numAttributes() int {
	n := 0
	for st := s; st != nil; st = st.parent {
		n += len(st.attributes)
	}
	return n
}

// Stereotype returns the applied stereotype.
func (a *StereotypeApplication) Stereotype() *Stereotype { return a.stereotype }

// Set assigns a value to a stereotype attribute. The attribute must be
// declared on the stereotype (or inherited) and the value must match its
// declared kind.
func (a *StereotypeApplication) Set(name string, v Value) error {
	def, ok := a.stereotype.Attribute(name)
	if !ok {
		return fmt.Errorf("uml: stereotype %s has no attribute %s", a.stereotype.name, name)
	}
	if v.Kind() != def.Kind {
		return fmt.Errorf("uml: stereotype %s attribute %s: value is %s, want %s",
			a.stereotype.name, name, v.Kind(), def.Kind)
	}
	for i := range a.values {
		if a.values[i].name == name {
			a.values[i].value = v
			return nil
		}
	}
	a.values = append(a.values, attrValue{name, v})
	return nil
}

// Get returns the value of a stereotype attribute, falling back to the
// declared default. The second result reports whether any value (explicit or
// default) exists.
func (a *StereotypeApplication) Get(name string) (Value, bool) {
	for _, av := range a.values {
		if av.name == name {
			return av.value, true
		}
	}
	if def, ok := a.stereotype.Attribute(name); ok && !def.Default.IsZero() {
		return def.Default, true
	}
	return Value{}, false
}

// SetValues returns the explicitly assigned attribute names in sorted order.
func (a *StereotypeApplication) SetValues() []string {
	names := make([]string, len(a.values))
	for i, av := range a.values {
		names[i] = av.name
	}
	sort.Strings(names)
	return names
}
