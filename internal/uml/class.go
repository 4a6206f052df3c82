package uml

import (
	"fmt"
	"sort"
	"strings"
)

// Class is a UML class describing one type of ICT component (Figure 8:
// Server, C6500, C3750, HP2650, C2960, Comp, Printer). Per Section V-A1 of
// the paper, classes may only carry static attributes so that two instances
// of the same class always expose identical properties; attribute values are
// therefore stored on the class (via owned properties and stereotype
// applications), never on instances.
type Class struct {
	name         string
	model        *Model
	applications []*StereotypeApplication
	properties   map[string]Value
	propOrder    []string
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Model returns the owning model.
func (c *Class) Model() *Model { return c.model }

// Apply applies a stereotype to the class and returns the application so the
// caller can set attribute values. Abstract stereotypes and stereotypes
// extending a metaclass other than Class are rejected, enforcing the profile
// constraints of Figure 6 ("Device ... applied respectively and exclusively
// to Class ... elements").
func (c *Class) Apply(st *Stereotype) (*StereotypeApplication, error) {
	if st == nil {
		return nil, fmt.Errorf("uml: class %s: nil stereotype", c.name)
	}
	if st.IsAbstract() {
		return nil, fmt.Errorf("uml: class %s: cannot apply abstract stereotype %s", c.name, st.Name())
	}
	if ext := st.Extends(); ext != MetaclassClass {
		return nil, fmt.Errorf("uml: class %s: stereotype %s extends %s, not Class", c.name, st.Name(), ext)
	}
	for _, app := range c.applications {
		if app.stereotype == st {
			return nil, fmt.Errorf("uml: class %s: stereotype %s already applied", c.name, st.Name())
		}
	}
	app := c.model.newApplication(st)
	c.applications = append(c.applications, app)
	return app, nil
}

// Applications returns the stereotype applications in application order.
func (c *Class) Applications() []*StereotypeApplication {
	out := make([]*StereotypeApplication, len(c.applications))
	copy(out, c.applications)
	return out
}

// EachApplication calls fn with each stereotype application in application
// order, without copying the list.
func (c *Class) EachApplication(fn func(*StereotypeApplication)) {
	for _, app := range c.applications {
		fn(app)
	}
}

// Application returns the application of the named stereotype, if present.
// The name matches the applied stereotype or any of its ancestors, so
// Application("Component") finds a class stereotyped <<Device>> when Device
// specialises Component.
func (c *Class) Application(name string) (*StereotypeApplication, bool) {
	for _, app := range c.applications {
		if app.stereotype.IsKindOf(name) {
			return app, true
		}
	}
	return nil, false
}

// HasStereotype reports whether the class is stereotyped by name (directly
// or via a specialisation).
func (c *Class) HasStereotype(name string) bool {
	_, ok := c.Application(name)
	return ok
}

// StereotypeNames returns the applied stereotype names in application order,
// as they would appear in guillemets above the class name.
func (c *Class) StereotypeNames() []string {
	out := make([]string, 0, len(c.applications))
	for _, app := range c.applications {
		out = append(out, app.stereotype.Name())
	}
	return out
}

// SetProperty assigns a static owned property of the class (in addition to
// stereotype attributes). Properties are class-level by construction.
func (c *Class) SetProperty(name string, v Value) error {
	if name == "" {
		return fmt.Errorf("uml: class %s: empty property name", c.name)
	}
	if v.IsZero() {
		return fmt.Errorf("uml: class %s: property %s: absent value", c.name, name)
	}
	if c.properties == nil {
		c.properties = make(map[string]Value)
	}
	if _, exists := c.properties[name]; !exists {
		c.propOrder = append(c.propOrder, name)
	}
	c.properties[name] = v
	return nil
}

// Property returns a static attribute value of the class. Owned properties
// take precedence; otherwise every stereotype application is consulted, in
// application order. This is the single lookup path used by dependability
// analysis to read MTBF/MTTR etc., both on classes and (transitively) on
// instance specifications.
func (c *Class) Property(name string) (Value, bool) {
	if v, ok := c.properties[name]; ok {
		return v, true
	}
	for _, app := range c.applications {
		if v, ok := app.Get(name); ok {
			return v, true
		}
	}
	return Value{}, false
}

// PropertyNames returns the names of all available static attributes (owned
// properties first, then stereotype attributes), deduplicated, sorted.
func (c *Class) PropertyNames() []string {
	seen := make(map[string]bool)
	var names []string
	c.EachPropertyName(func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	})
	sort.Strings(names)
	return names
}

// EachPropertyName calls fn with every name PropertyNames returns — owned
// properties in definition order, then the attributes of each applied
// stereotype — unsorted, repeats included, without allocating.
func (c *Class) EachPropertyName(fn func(string)) {
	for _, n := range c.propOrder {
		fn(n)
	}
	for _, app := range c.applications {
		app.stereotype.EachAttribute(func(def AttributeDef) { fn(def.Name) })
	}
}

// String renders the class header as it appears in a diagram, e.g.
// "<<component;switch>> C6500".
func (c *Class) String() string {
	if len(c.applications) == 0 {
		return c.name
	}
	return "<<" + strings.Join(c.StereotypeNames(), ";") + ">> " + c.name
}

// Association is a UML association between two classes; with the Connector
// and Communication stereotypes applied it models a possible communication
// link between two device types. Following the paper (Figure 1), every
// Connector joins exactly two Devices.
type Association struct {
	name         string
	model        *Model
	endA, endB   *Class
	applications []*StereotypeApplication
}

// Name returns the association name.
func (a *Association) Name() string { return a.name }

// Ends returns the two member-end classes of the association.
func (a *Association) Ends() (*Class, *Class) { return a.endA, a.endB }

// Joins reports whether the association joins the two given classes, in
// either orientation.
func (a *Association) Joins(x, y *Class) bool {
	return (a.endA == x && a.endB == y) || (a.endA == y && a.endB == x)
}

// Apply applies a stereotype to the association. Only concrete stereotypes
// extending the Association metaclass are accepted (Figure 6: Connector;
// Figure 7: Communication).
func (a *Association) Apply(st *Stereotype) (*StereotypeApplication, error) {
	if st == nil {
		return nil, fmt.Errorf("uml: association %s: nil stereotype", a.name)
	}
	if st.IsAbstract() {
		return nil, fmt.Errorf("uml: association %s: cannot apply abstract stereotype %s", a.name, st.Name())
	}
	if ext := st.Extends(); ext != MetaclassAssociation {
		return nil, fmt.Errorf("uml: association %s: stereotype %s extends %s, not Association",
			a.name, st.Name(), ext)
	}
	for _, app := range a.applications {
		if app.stereotype == st {
			return nil, fmt.Errorf("uml: association %s: stereotype %s already applied", a.name, st.Name())
		}
	}
	app := a.model.newApplication(st)
	a.applications = append(a.applications, app)
	return app, nil
}

// Applications returns the stereotype applications in application order.
func (a *Association) Applications() []*StereotypeApplication {
	out := make([]*StereotypeApplication, len(a.applications))
	copy(out, a.applications)
	return out
}

// EachApplication calls fn with each stereotype application in application
// order, without copying the list.
func (a *Association) EachApplication(fn func(*StereotypeApplication)) {
	for _, app := range a.applications {
		fn(app)
	}
}

// Application returns the application of the named stereotype (or a
// specialisation of it), if present.
func (a *Association) Application(name string) (*StereotypeApplication, bool) {
	for _, app := range a.applications {
		if app.stereotype.IsKindOf(name) {
			return app, true
		}
	}
	return nil, false
}

// HasStereotype reports whether the association carries the named stereotype.
func (a *Association) HasStereotype(name string) bool {
	_, ok := a.Application(name)
	return ok
}

// Property returns a static attribute contributed by a stereotype
// application, e.g. MTBF of a <<Connector>> association.
func (a *Association) Property(name string) (Value, bool) {
	for _, app := range a.applications {
		if v, ok := app.Get(name); ok {
			return v, true
		}
	}
	return Value{}, false
}

// StereotypeNames returns the applied stereotype names in application order.
func (a *Association) StereotypeNames() []string {
	out := make([]string, 0, len(a.applications))
	for _, app := range a.applications {
		out = append(out, app.stereotype.Name())
	}
	return out
}

// String renders the association, e.g. "<<communication;connector>> Comp-HP2650".
func (a *Association) String() string {
	hdr := a.name
	if len(a.applications) > 0 {
		hdr = "<<" + strings.Join(a.StereotypeNames(), ";") + ">> " + a.name
	}
	return hdr
}
