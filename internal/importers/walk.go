package importers

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"upsim/internal/uml"
)

// A View is the part of a model that an import covers: the model and its
// profiles, classes, associations, object diagrams and activities as they
// were listed when the View was taken. Elements added to the model later
// are not in it; elements it holds are read as they are at import time.
type View struct {
	model        *uml.Model
	profiles     []*uml.Profile
	classes      []*uml.Class
	associations []*uml.Association
	diagrams     []*uml.ObjectDiagram
	activities   []*uml.Activity
}

// ViewOf lists the elements of m now.
func ViewOf(m *uml.Model) View {
	if m == nil {
		return View{}
	}
	return View{
		model:        m,
		profiles:     m.Profiles(),
		classes:      m.Classes(),
		associations: m.Associations(),
		diagrams:     m.Diagrams(),
		activities:   m.Activities(),
	}
}

// nameError is the error an import reports for the model itself before it
// creates anything: no model, or a name that cannot be an entity name.
func (v *View) nameError() error {
	switch {
	case v.model == nil:
		return fmt.Errorf("importers: nil model")
	case v.model.Name() == "":
		return fmt.Errorf("importers: model without name")
	case strings.Contains(v.model.Name(), "."):
		return fmt.Errorf("importers: model name %q contains namespace separator", v.model.Name())
	}
	return nil
}

// stepKind is the kind of one step of an import.
type stepKind uint8

const (
	stepContainer   stepKind = iota // models.<model>.<name>: profiles, classes, …
	stepProfile                     // a profile
	stepStereotype                  // a stereotype of the last profile
	stepClass                       // a class
	stepAssociation                 // an association
	stepAttribute                   // an attribute of the last class or association
	stepDiagram                     // an object diagram
	stepInstance                    // an instance of the last diagram
	stepActivity                    // an activity
	stepNode                        // a node of the last activity
	stepApply                       // relation: last class or association → applied stereotype
	stepLink                        // relation: instance ↔ instance of the last diagram
	stepFlow                        // relation: node → node of the last activity
)

// depth is the level of the entity a step creates below the model's root
// entity — 0 a container, 1 its child, 2 a grandchild — or -1 for a
// relation step.
func (k stepKind) depth() int {
	switch k {
	case stepContainer:
		return 0
	case stepProfile, stepClass, stepAssociation, stepDiagram, stepActivity:
		return 1
	case stepStereotype, stepAttribute, stepInstance, stepNode:
		return 2
	}
	return -1
}

// A step is one entity an import creates, as a child of the entity last
// created one level up, or one relation it draws.
type step struct {
	kind   stepKind
	name   string            // entity steps: the entity's name
	meta   string            // entity steps: its UML metamodel type, "" for containers
	value  uml.Value         // stepAttribute
	stereo *uml.Stereotype   // stepStereotype, stepApply
	class  *uml.Class        // stepClass; stepInstance: the classifier
	assoc  *uml.Association  // stepAssociation
	link   *uml.Link         // stepLink
	node   *uml.ActivityNode // stepNode; stepFlow: the source
	to     *uml.ActivityNode // stepFlow: the target
}

// walk calls visit with every step of importing v, in import order. It
// makes every naming decision of the import — the attribute order, the
// names of control nodes — so Check and ImportView cannot disagree on one,
// and it fails on a stereotype applied from a profile v does not hold,
// which has no entity to relate to. With rel false it skips the link and
// flow steps, which cannot fail. A visit error stops the walk.
func (v *View) walk(rel bool, visit func(step) error) error {
	var (
		apps  []*uml.StereotypeApplication // the current element's, reused
		names []string                     // the current element's attribute names, reused
	)
	// applied visits the stereotype applications of one class or
	// association, collected into apps.
	applied := func(what, owner string) error {
		for _, app := range apps {
			st := app.Stereotype()
			if !slices.Contains(v.profiles, st.Profile()) {
				return fmt.Errorf("importers: %s %s applies stereotype %s from an unregistered profile",
					what, owner, st.Name())
			}
			if err := visit(step{kind: stepApply, stereo: st}); err != nil {
				return err
			}
		}
		return nil
	}
	// attributes visits the valued ones of names.
	attributes := func(get func(string) (uml.Value, bool)) error {
		for _, n := range names {
			if val, ok := get(n); ok {
				if err := visit(step{kind: stepAttribute, name: n, meta: MetaAttribute, value: val}); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if err := visit(step{kind: stepContainer, name: "profiles"}); err != nil {
		return err
	}
	for _, p := range v.profiles {
		if err := visit(step{kind: stepProfile, name: p.Name(), meta: MetaProfile}); err != nil {
			return err
		}
		for _, st := range p.Stereotypes() {
			if err := visit(step{kind: stepStereotype, name: st.Name(), meta: MetaStereotype, stereo: st}); err != nil {
				return err
			}
		}
	}

	// Classes carry their static attribute values, in name order.
	if err := visit(step{kind: stepContainer, name: "classes"}); err != nil {
		return err
	}
	for _, c := range v.classes {
		if err := visit(step{kind: stepClass, name: c.Name(), meta: MetaClass, class: c}); err != nil {
			return err
		}
		apps = apps[:0]
		c.EachApplication(func(app *uml.StereotypeApplication) { apps = append(apps, app) })
		if err := applied("class", c.Name()); err != nil {
			return err
		}
		names = names[:0]
		c.EachPropertyName(func(n string) { names = append(names, n) })
		slices.Sort(names)
		names = slices.Compact(names)
		if err := attributes(c.Property); err != nil {
			return err
		}
	}

	// Associations carry the attributes of their stereotypes, in
	// application order.
	if err := visit(step{kind: stepContainer, name: "associations"}); err != nil {
		return err
	}
	for _, a := range v.associations {
		if err := visit(step{kind: stepAssociation, name: a.Name(), meta: MetaAssociation, assoc: a}); err != nil {
			return err
		}
		apps = apps[:0]
		a.EachApplication(func(app *uml.StereotypeApplication) { apps = append(apps, app) })
		if err := applied("association", a.Name()); err != nil {
			return err
		}
		names = names[:0]
		for _, app := range apps {
			app.Stereotype().EachAttribute(func(def uml.AttributeDef) {
				if !slices.Contains(names, def.Name) {
					names = append(names, def.Name)
				}
			})
		}
		if err := attributes(a.Property); err != nil {
			return err
		}
	}

	if err := visit(step{kind: stepContainer, name: "diagrams"}); err != nil {
		return err
	}
	for _, d := range v.diagrams {
		if err := visit(step{kind: stepDiagram, name: d.Name()}); err != nil {
			return err
		}
		for _, inst := range d.Instances() {
			if err := visit(step{kind: stepInstance, name: inst.Name(), meta: MetaInstance, class: inst.Classifier()}); err != nil {
				return err
			}
		}
		if !rel {
			continue
		}
		for _, l := range d.Links() {
			if err := visit(step{kind: stepLink, link: l}); err != nil {
				return err
			}
		}
	}

	// Atomic services become entities of the model space ("Also, atomic
	// services are transformed into entities of the model space", Step 5);
	// control nodes are named by kind, numbered from 1 per activity except
	// the one initial node.
	if err := visit(step{kind: stepContainer, name: "activities"}); err != nil {
		return err
	}
	for _, act := range v.activities {
		if err := visit(step{kind: stepActivity, name: act.Name(), meta: MetaActivity}); err != nil {
			return err
		}
		nodes := act.Nodes()
		var finals, forks, joins int
		for _, n := range nodes {
			var name, meta string
			switch n.Kind() {
			case uml.NodeAction:
				name, meta = n.Name(), MetaAction
			case uml.NodeInitial:
				name, meta = "initial", MetaInitial
			case uml.NodeFinal:
				finals++
				name, meta = "final"+strconv.Itoa(finals), MetaFinal
			case uml.NodeFork:
				forks++
				name, meta = "fork"+strconv.Itoa(forks), MetaFork
			case uml.NodeJoin:
				joins++
				name, meta = "join"+strconv.Itoa(joins), MetaJoin
			}
			if err := visit(step{kind: stepNode, name: name, meta: meta, node: n}); err != nil {
				return err
			}
		}
		if !rel {
			continue
		}
		for _, n := range nodes {
			for _, to := range n.Outgoing() {
				if err := visit(step{kind: stepFlow, node: n, to: to}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
