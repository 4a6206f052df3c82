package uml

import (
	"fmt"
	"sort"
)

// InstanceSpecification is a UML instance of a class: one concrete network
// node in an object diagram, e.g. "t1:Comp" or "printS:Server" (Figure 9).
// Instances carry no attribute values of their own — Section V-A1 requires
// classes to have only static attributes so that "two different instances of
// the same class have also the same properties"; Property therefore delegates
// to the classifier.
type InstanceSpecification struct {
	name       string
	classifier *Class
	model      *Model
}

// Name returns the instance name (e.g. "t1").
func (i *InstanceSpecification) Name() string { return i.name }

// Classifier returns the instantiated class.
func (i *InstanceSpecification) Classifier() *Class { return i.classifier }

// Model returns the owning model.
func (i *InstanceSpecification) Model() *Model { return i.model }

// Property reads a static attribute through the classifier, preserving the
// paper's guarantee that a UPSIM element exposes exactly the properties of
// the class it instantiates (Section V-E).
func (i *InstanceSpecification) Property(name string) (Value, bool) {
	return i.classifier.Property(name)
}

// HasStereotype reports whether the classifier carries the named stereotype.
func (i *InstanceSpecification) HasStereotype(name string) bool {
	return i.classifier.HasStereotype(name)
}

// Signature renders the instance as "name:Class", the form used throughout
// the paper's object diagrams.
func (i *InstanceSpecification) Signature() string {
	return i.name + ":" + i.classifier.name
}

// String implements fmt.Stringer.
func (i *InstanceSpecification) String() string { return i.Signature() }

// Link is an instance of an association connecting two instance
// specifications — one deployed communication link in the object diagram.
type Link struct {
	name        string
	association *Association
	a, b        *InstanceSpecification
	model       *Model
	// next is the following link between the same pair of instances, in
	// insertion order (ObjectDiagram.byPair holds the first).
	next *Link
}

// Name returns the link name (may be empty; links are usually anonymous in
// the diagrams and identified by their endpoints).
func (l *Link) Name() string { return l.name }

// Association returns the association the link instantiates.
func (l *Link) Association() *Association { return l.association }

// Ends returns the two connected instances.
func (l *Link) Ends() (*InstanceSpecification, *InstanceSpecification) { return l.a, l.b }

// Connects reports whether the link joins the two given instances, in either
// orientation.
func (l *Link) Connects(x, y *InstanceSpecification) bool {
	return (l.a == x && l.b == y) || (l.a == y && l.b == x)
}

// Other returns the opposite end of the link relative to the given instance,
// or nil if the instance is not an endpoint.
func (l *Link) Other(x *InstanceSpecification) *InstanceSpecification {
	switch x {
	case l.a:
		return l.b
	case l.b:
		return l.a
	}
	return nil
}

// Property reads a static attribute of the link through its association
// (e.g. the MTBF of a <<Connector>> link).
func (l *Link) Property(name string) (Value, bool) {
	return l.association.Property(name)
}

// Signature renders the link as "a--b (Association)".
func (l *Link) Signature() string {
	return l.a.name + "--" + l.b.name + " (" + l.association.name + ")"
}

// String implements fmt.Stringer.
func (l *Link) String() string { return l.Signature() }

// pairKey is the orientation-independent key of a pair of instance names,
// used for deduplication when merging paths into the UPSIM ("multiple
// occurrences are ignored", Section VI-H).
type pairKey struct{ lo, hi string }

func pairOf(a, b string) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a, b}
}

// ObjectDiagram is a UML object diagram: a set of instance specifications
// and links over the classes and associations of a model. The complete
// infrastructure (Figure 9) and every generated UPSIM (Figures 11-12) are
// object diagrams.
type ObjectDiagram struct {
	name      string
	model     *Model
	instances map[string]*InstanceSpecification
	instOrder []*InstanceSpecification
	links     []*Link
	byPair    map[pairKey]*Link // first link of each pair; the rest chain through Link.next

	// Slabs that AddInstance and Connect take their next element from
	// while a slot is left (reserve sizes them). They are never
	// reallocated, so every handed-out pointer stays valid.
	instSlab []InstanceSpecification
	linkSlab []Link
}

// NewObjectDiagram creates an empty object diagram bound to a model and
// lists it in the model.
func (m *Model) NewObjectDiagram(name string) *ObjectDiagram {
	d := m.NewDetachedDiagram(name)
	m.diagrams = append(m.diagrams, d)
	return d
}

// NewDetachedDiagram creates an empty object diagram over the model's
// classes and associations that the model does not list: Diagram and
// Diagrams do not find it, and Encode does not write it, until
// AttachDiagram lists it. Generated UPSIMs are built this way, so
// generation leaves the model as it found it.
func (m *Model) NewDetachedDiagram(name string) *ObjectDiagram {
	return m.NewSizedDiagram(name, 0, 0)
}

// NewSizedDiagram is NewDetachedDiagram with room for nInst instances and
// nLinks links: up to those counts, AddInstance and Connect take their
// elements from two slabs and never grow a table. Step 8 counts the UPSIM
// before it builds it this way. More elements still fit, one allocation
// each.
func (m *Model) NewSizedDiagram(name string, nInst, nLinks int) *ObjectDiagram {
	d := &ObjectDiagram{name: name, model: m}
	d.reserve(nInst, nLinks)
	return d
}

// reserve sizes an empty diagram for nInst instances and nLinks links: the
// lookup tables and order lists get that room, and the instances and links
// themselves come from one slab each.
func (d *ObjectDiagram) reserve(nInst, nLinks int) {
	d.instances = make(map[string]*InstanceSpecification, nInst)
	d.instOrder = make([]*InstanceSpecification, 0, nInst)
	d.instSlab = make([]InstanceSpecification, 0, nInst)
	d.links = make([]*Link, 0, nLinks)
	d.byPair = make(map[pairKey]*Link, nLinks)
	d.linkSlab = make([]Link, 0, nLinks)
}

// AttachDiagram lists a detached diagram of this model (NewDetachedDiagram)
// in the model. It rejects a diagram of another model and a name the model
// already lists.
func (m *Model) AttachDiagram(d *ObjectDiagram) error {
	if d.model != m {
		return fmt.Errorf("uml: model %s: diagram %s belongs to another model", m.name, d.name)
	}
	if _, taken := m.Diagram(d.name); taken {
		return fmt.Errorf("uml: model %s already has an object diagram named %q", m.name, d.name)
	}
	m.diagrams = append(m.diagrams, d)
	return nil
}

// Name returns the diagram name.
func (d *ObjectDiagram) Name() string { return d.name }

// Model returns the model whose classes the diagram instantiates.
func (d *ObjectDiagram) Model() *Model { return d.model }

// AddInstance creates an instance of the given class in the diagram.
// Instance names are unique per diagram.
func (d *ObjectDiagram) AddInstance(name string, class *Class) (*InstanceSpecification, error) {
	if name == "" {
		return nil, fmt.Errorf("uml: diagram %s: empty instance name", d.name)
	}
	if class == nil {
		return nil, fmt.Errorf("uml: diagram %s: instance %s: nil class", d.name, name)
	}
	if class.model != d.model {
		return nil, fmt.Errorf("uml: diagram %s: instance %s: class %s belongs to another model",
			d.name, name, class.name)
	}
	if _, dup := d.instances[name]; dup {
		return nil, fmt.Errorf("uml: diagram %s: duplicate instance %s", d.name, name)
	}
	inst := slot(&d.instSlab)
	*inst = InstanceSpecification{name: name, classifier: class, model: d.model}
	d.instances[name] = inst
	d.instOrder = append(d.instOrder, inst)
	return inst, nil
}

// Instance looks up an instance by name.
func (d *ObjectDiagram) Instance(name string) (*InstanceSpecification, bool) {
	i, ok := d.instances[name]
	return i, ok
}

// Instances returns all instances in insertion order.
func (d *ObjectDiagram) Instances() []*InstanceSpecification {
	out := make([]*InstanceSpecification, len(d.instOrder))
	copy(out, d.instOrder)
	return out
}

// InstanceAt returns the i-th instance in insertion order (Instances()[i],
// without copying the list), for 0 <= i < NumInstances().
func (d *ObjectDiagram) InstanceAt(i int) *InstanceSpecification { return d.instOrder[i] }

// InstanceNames returns the sorted instance names.
func (d *ObjectDiagram) InstanceNames() []string {
	out := make([]string, len(d.instOrder))
	for i, inst := range d.instOrder {
		out[i] = inst.name
	}
	sort.Strings(out)
	return out
}

// NumInstances returns the number of instances.
func (d *ObjectDiagram) NumInstances() int { return len(d.instances) }

// NumLinks returns the number of links.
func (d *ObjectDiagram) NumLinks() int { return len(d.links) }

// LinkAt returns the i-th link in insertion order (Links()[i], without
// copying the list), for 0 <= i < NumLinks(). Topology edge ID i is
// LinkAt(i) (topology.FromObjectDiagram).
func (d *ObjectDiagram) LinkAt(i int) *Link { return d.links[i] }

// Connect creates a link between two instances as an instance of the given
// association. The association must join the classifiers of the two ends
// ("the possibility for connections is ruled by those existing
// associations", Section VI-B); a link duplicating an existing link over the
// same association and endpoints is rejected.
func (d *ObjectDiagram) Connect(a, b *InstanceSpecification, assoc *Association) (*Link, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("uml: diagram %s: link with nil end", d.name)
	}
	if a == b {
		return nil, fmt.Errorf("uml: diagram %s: self-link on %s", d.name, a.name)
	}
	if assoc == nil {
		return nil, fmt.Errorf("uml: diagram %s: link %s--%s: nil association", d.name, a.name, b.name)
	}
	if got, ok := d.instances[a.name]; !ok || got != a {
		return nil, fmt.Errorf("uml: diagram %s: instance %s not in diagram", d.name, a.name)
	}
	if got, ok := d.instances[b.name]; !ok || got != b {
		return nil, fmt.Errorf("uml: diagram %s: instance %s not in diagram", d.name, b.name)
	}
	if !assoc.Joins(a.classifier, b.classifier) {
		return nil, fmt.Errorf("uml: diagram %s: association %s (%s--%s) cannot link %s and %s",
			d.name, assoc.name, assoc.endA.name, assoc.endB.name, a.Signature(), b.Signature())
	}
	key := pairOf(a.name, b.name)
	var last *Link
	for l := d.byPair[key]; l != nil; l = l.next {
		if l.association == assoc {
			return nil, fmt.Errorf("uml: diagram %s: duplicate link %s\x00%s over %s",
				d.name, key.lo, key.hi, assoc.name)
		}
		last = l
	}
	l := slot(&d.linkSlab)
	*l = Link{association: assoc, a: a, b: b, model: d.model}
	d.links = append(d.links, l)
	if last == nil {
		d.byPair[key] = l
	} else {
		last.next = l
	}
	return l, nil
}

// ConnectByName is a convenience wrapper resolving both endpoints by name.
func (d *ObjectDiagram) ConnectByName(a, b string, assoc *Association) (*Link, error) {
	ia, ok := d.instances[a]
	if !ok {
		return nil, fmt.Errorf("uml: diagram %s: unknown instance %s", d.name, a)
	}
	ib, ok := d.instances[b]
	if !ok {
		return nil, fmt.Errorf("uml: diagram %s: unknown instance %s", d.name, b)
	}
	return d.Connect(ia, ib, assoc)
}

// Links returns all links in insertion order.
func (d *ObjectDiagram) Links() []*Link {
	out := make([]*Link, len(d.links))
	copy(out, d.links)
	return out
}

// LinksBetween returns all links connecting the two named instances,
// regardless of orientation. Multiple links between the same pair model
// redundant physical connections (the paper's core switches have "redundant
// connections").
func (d *ObjectDiagram) LinksBetween(a, b string) []*Link {
	first := d.byPair[pairOf(a, b)]
	n := 0
	for l := first; l != nil; l = l.next {
		n++
	}
	out := make([]*Link, 0, n)
	for l := first; l != nil; l = l.next {
		out = append(out, l)
	}
	return out
}

// LinksOf returns all links incident to the named instance.
func (d *ObjectDiagram) LinksOf(name string) []*Link {
	var out []*Link
	for _, l := range d.links {
		if l.a.name == name || l.b.name == name {
			out = append(out, l)
		}
	}
	return out
}

// Neighbors returns the sorted names of instances adjacent to the named one.
func (d *ObjectDiagram) Neighbors(name string) []string {
	seen := make(map[string]bool)
	for _, l := range d.links {
		switch name {
		case l.a.name:
			seen[l.b.name] = true
		case l.b.name:
			seen[l.a.name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
