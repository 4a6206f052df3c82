package importers

import (
	"fmt"

	"upsim/internal/mapping"
	"upsim/internal/vpm"
)

// MappingImporter implements Step 6: "Import service mapping pairs to the
// VIATRA2 model space using a custom service mapping importer." The paper's
// importer "parses the XML file, traverses the content tree and finds
// appropriate VPM entities in the metamodel corresponding to the type of
// each element"; this importer does the same against an already-parsed
// mapping.Mapping (the XML codec lives in package mapping).
//
// Every pair becomes an entity mappings.<name>.<atomic service> typed by
// metamodel.mapping.ServiceMappingPair, with "requester" and "provider"
// relations resolved against the instance entities of an imported
// infrastructure diagram. Dangling component references are reported as
// errors — the mapping is the one input whose hand-edited nature makes this
// the most common failure in practice.
type MappingImporter struct {
	space *vpm.ModelSpace
}

// NewMappingImporter creates the importer, materialising the mapping
// metamodel.
func NewMappingImporter(s *vpm.ModelSpace) (*MappingImporter, error) {
	if s == nil {
		return nil, fmt.Errorf("importers: nil model space")
	}
	if _, err := s.EnsureEntity(NSMappingMetamodel + "." + MetaPair); err != nil {
		return nil, err
	}
	return &MappingImporter{space: s}, nil
}

// Import materialises the mapping under mappings.<name>, resolving component
// ids against the instances of the object diagram at diagramFQN (see
// DiagramFQN). Import is atomic: on error, no partial mapping remains in the
// space.
func (im *MappingImporter) Import(name string, m *mapping.Mapping, diagramFQN string) error {
	if m == nil {
		return fmt.Errorf("importers: nil mapping")
	}
	return im.ImportPairs(name, m.Pairs(), diagramFQN)
}

// ImportPairs is Import of a mapping given by its pairs, in mapping order.
func (im *MappingImporter) ImportPairs(name string, pairs []mapping.Pair, diagramFQN string) error {
	if err := CheckMappingName(name); err != nil {
		return err
	}
	s := im.space
	diagram, ok := s.Lookup(diagramFQN)
	if !ok {
		return fmt.Errorf("importers: mapping %q: infrastructure diagram %q not in model space (run the UML importer first)",
			name, diagramFQN)
	}
	mappingsRoot, err := s.EnsureEntity(NSMappings)
	if err != nil {
		return err
	}
	if _, dup := mappingsRoot.Child(name); dup {
		return fmt.Errorf("importers: mapping %q already imported", name)
	}
	pairType := s.MustLookup(NSMappingMetamodel + "." + MetaPair)

	root, err := s.NewEntity(mappingsRoot, name)
	if err != nil {
		return err
	}
	abort := func(cause error) error {
		_ = s.DeleteEntity(root)
		return cause
	}
	for _, p := range pairs {
		pe, err := s.NewEntity(root, p.AtomicService)
		if err != nil {
			return abort(err)
		}
		if err := s.SetInstanceOf(pe, pairType); err != nil {
			return abort(err)
		}
		req, ok := diagram.Child(p.Requester)
		if !ok {
			return abort(fmt.Errorf("importers: mapping %q: atomic service %q: requester %q not found in diagram %q",
				name, p.AtomicService, p.Requester, diagramFQN))
		}
		prov, ok := diagram.Child(p.Provider)
		if !ok {
			return abort(fmt.Errorf("importers: mapping %q: atomic service %q: provider %q not found in diagram %q",
				name, p.AtomicService, p.Provider, diagramFQN))
		}
		if _, err := s.NewRelation(RelRequester, pe, req); err != nil {
			return abort(err)
		}
		if _, err := s.NewRelation(RelProvider, pe, prov); err != nil {
			return abort(err)
		}
	}
	return nil
}

// PairFQN returns the model-space FQN of an imported service mapping pair.
func PairFQN(mappingName, atomicService string) string {
	return NSMappings + "." + mappingName + "." + atomicService
}
