// Package importers implements Steps 5 and 6 of the UPSIM methodology: the
// UML native importer that materialises UML models as VPM entities and
// relations ("VIATRA2 creates entities for model elements and their
// relations"), and the custom service-mapping importer built on a dedicated
// mapping metamodel (Section V-C).
//
// Namespace layout in the model space:
//
//	metamodel.uml.*          UML metamodel entities (Class, Association, …)
//	metamodel.mapping.*      service-mapping metamodel (ServiceMappingPair)
//	models.<model>.profiles.<profile>.<stereotype>
//	models.<model>.classes.<class>.<attribute>
//	models.<model>.associations.<association>.<attribute>
//	models.<model>.diagrams.<diagram>.<instance>
//	models.<model>.activities.<activity>.<node>
//	mappings.<name>.<atomic service>
//
// Relations: "stereotype" (class/association → stereotype), "endA"/"endB"
// (association → class), "classifier" (instance → class), "link"
// (instance ↔ instance, value = association name), "flow" (activity node →
// node), "requester"/"provider" (mapping pair → instance).
package importers

import (
	"fmt"

	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// Namespace roots and relation names used by the importers. They are
// exported so that downstream transformations (package core) can navigate
// the model space without hard-coding strings.
const (
	NSUMLMetamodel     = "metamodel.uml"
	NSMappingMetamodel = "metamodel.mapping"
	NSModels           = "models"
	NSMappings         = "mappings"

	RelStereotype = "stereotype"
	RelEndA       = "endA"
	RelEndB       = "endB"
	RelClassifier = "classifier"
	RelLink       = "link"
	RelFlow       = "flow"
	RelRequester  = "requester"
	RelProvider   = "provider"
)

// UML metamodel entity names under NSUMLMetamodel.
const (
	MetaClass       = "Class"
	MetaAssociation = "Association"
	MetaInstance    = "InstanceSpecification"
	MetaProfile     = "Profile"
	MetaStereotype  = "Stereotype"
	MetaAttribute   = "Attribute"
	MetaActivity    = "Activity"
	MetaInitial     = "Initial"
	MetaFinal       = "Final"
	MetaAction      = "Action"
	MetaFork        = "Fork"
	MetaJoin        = "Join"
)

// MetaPair is the single entity of the mapping metamodel.
const MetaPair = "ServiceMappingPair"

// EnsureUMLMetamodel creates the UML metamodel entities if absent and
// returns the metamodel root.
func EnsureUMLMetamodel(s *vpm.ModelSpace) (*vpm.Entity, error) {
	root, err := s.EnsureEntity(NSUMLMetamodel)
	if err != nil {
		return nil, err
	}
	for _, n := range []string{
		MetaClass, MetaAssociation, MetaInstance, MetaProfile, MetaStereotype,
		MetaAttribute, MetaActivity, MetaInitial, MetaFinal, MetaAction,
		MetaFork, MetaJoin,
	} {
		if _, err := s.EnsureEntity(NSUMLMetamodel + "." + n); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// UMLImporter imports uml.Model resources into a model space. It mirrors
// VIATRA2's "native UML importer" (Step 5): every profile, stereotype,
// class, association, instance specification, link and activity node becomes
// an entity or relation typed by the UML metamodel.
type UMLImporter struct {
	space *vpm.ModelSpace
}

// NewUMLImporter creates an importer bound to a model space, materialising
// the UML metamodel on construction.
func NewUMLImporter(s *vpm.ModelSpace) (*UMLImporter, error) {
	if s == nil {
		return nil, fmt.Errorf("importers: nil model space")
	}
	if _, err := EnsureUMLMetamodel(s); err != nil {
		return nil, err
	}
	return &UMLImporter{space: s}, nil
}

// Import materialises the model under models.<model name>. Importing two
// models with the same name is an error.
func (im *UMLImporter) Import(m *uml.Model) error {
	return im.ImportView(ViewOf(m))
}

// ImportView is Import of the elements v lists: a caller that imports a
// model after adding elements of its own imports the model as it was when
// it took the View.
func (im *UMLImporter) ImportView(v View) error {
	if err := v.nameError(); err != nil {
		return err
	}
	s := im.space
	modelsRoot, err := s.EnsureEntity(NSModels)
	if err != nil {
		return err
	}
	if _, dup := modelsRoot.Child(v.model.Name()); dup {
		return fmt.Errorf("importers: model %q already imported", v.model.Name())
	}
	modelRoot, err := s.NewEntity(modelsRoot, v.model.Name())
	if err != nil {
		return err
	}

	var (
		last      [3]*vpm.Entity // the entity last created at each depth
		stereoEnt = make(map[*uml.Stereotype]*vpm.Entity)
		classEnt  = make(map[*uml.Class]*vpm.Entity)
		instEnt   = make(map[string]*vpm.Entity) // the current diagram's instances
		nodeEnt   = make(map[*uml.ActivityNode]*vpm.Entity)
	)
	return v.walk(true, func(st step) error {
		var (
			e   *vpm.Entity
			err error
		)
		if d := st.kind.depth(); d >= 0 {
			parent := modelRoot
			if d > 0 {
				parent = last[d-1]
			}
			if e, err = s.NewEntity(parent, st.name); err != nil {
				return err
			}
			last[d] = e
			if st.kind == stepAttribute {
				e.SetValue(st.value.String())
			}
			if st.meta != "" {
				if err := s.SetInstanceOf(e, s.MustLookup(NSUMLMetamodel+"."+st.meta)); err != nil {
					return err
				}
			}
		}
		switch st.kind {
		case stepStereotype:
			stereoEnt[st.stereo] = e
		case stepClass:
			classEnt[st.class] = e
		case stepAssociation:
			endA, endB := st.assoc.Ends()
			if _, err = s.NewRelation(RelEndA, e, classEnt[endA]); err == nil {
				_, err = s.NewRelation(RelEndB, e, classEnt[endB])
			}
		case stepDiagram:
			clear(instEnt)
		case stepInstance:
			instEnt[st.name] = e
			_, err = s.NewRelation(RelClassifier, e, classEnt[st.class])
		case stepNode:
			nodeEnt[st.node] = e
		case stepApply:
			_, err = s.NewRelation(RelStereotype, last[1], stereoEnt[st.stereo])
		case stepLink:
			a, b := st.link.Ends()
			var r *vpm.Relation
			if r, err = s.NewRelation(RelLink, instEnt[a.Name()], instEnt[b.Name()]); err == nil {
				r.SetValue(st.link.Association().Name())
			}
		case stepFlow:
			_, err = s.NewRelation(RelFlow, nodeEnt[st.node], nodeEnt[st.to])
		}
		return err
	})
}

// InstanceFQN returns the model-space FQN of an instance specification
// imported from the named model and diagram.
func InstanceFQN(model, diagram, instance string) string {
	return NSModels + "." + model + ".diagrams." + diagram + "." + instance
}

// DiagramFQN returns the model-space FQN of an imported object diagram.
func DiagramFQN(model, diagram string) string {
	return NSModels + "." + model + ".diagrams." + diagram
}

// ClassFQN returns the model-space FQN of an imported class.
func ClassFQN(model, class string) string {
	return NSModels + "." + model + ".classes." + class
}

// ActivityFQN returns the model-space FQN of an imported activity.
func ActivityFQN(model, activity string) string {
	return NSModels + "." + model + ".activities." + activity
}
