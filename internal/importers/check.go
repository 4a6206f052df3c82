package importers

import (
	"fmt"
	"strings"
	"sync"

	"upsim/internal/mapping"
	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// Check reports the error UMLImporter.Import would return for m into a
// fresh model space, with the same text, without building the space. A nil
// result means Import would succeed, so a caller can validate Step 5 up
// front and import only when someone reads the space.
func Check(m *uml.Model) error { return CheckView(ViewOf(m)) }

// CheckView is Check of the elements v lists, against ImportView. It
// follows the import's walk and stops at the first entity name the space
// cannot hold — empty, containing the FQN separator, or taken by a sibling
// — or the walk's own error. The import's relations cannot fail: package
// uml keeps every association end, classifier, link end and flow end
// inside the model.
func CheckView(v View) error {
	if err := v.nameError(); err != nil {
		return err
	}
	var path [2]string // the current container and depth-1 entity
	seen := siblingPool.Get().(*siblings)
	defer func() {
		clear(seen[0])
		clear(seen[1])
		siblingPool.Put(seen)
	}()
	return v.walk(false, func(st step) error {
		d := st.kind.depth()
		if d == 0 {
			// Containers have fixed, distinct names.
			path[0] = st.name
			clear(seen[0])
			return nil
		}
		if d < 0 {
			return nil
		}
		_, dup := seen[d-1][st.name]
		if dup || badName(st.name) {
			parent := NSModels + "." + v.model.Name() + "." + strings.Join(path[:d], ".")
			return vpm.NameError(parent, st.name, dup)
		}
		seen[d-1][st.name] = struct{}{}
		if d == 1 {
			path[1] = st.name
			clear(seen[1])
		}
		return nil
	})
}

// siblings holds the names taken under the current container and depth-1
// entity of a CheckView walk.
type siblings [2]map[string]struct{}

// siblingPool recycles the sibling sets: a cold generation checks its
// model on every request, and growing a set to the size of a diagram's
// instances would cost more bytes than the rest of the check.
var siblingPool = sync.Pool{New: func() any { return &siblings{{}, {}} }}

// badName reports whether NewEntity rejects name regardless of its
// siblings.
func badName(name string) bool { return name == "" || strings.Contains(name, ".") }

// CheckMappingName reports the error MappingImporter.ImportPairs returns for
// an unusable mapping name, before it touches the space.
func CheckMappingName(name string) error {
	if badName(name) {
		return fmt.Errorf("importers: invalid mapping name %q", name)
	}
	return nil
}

// CheckPairs reports the error MappingImporter.ImportPairs would return for
// importing pairs under name into a space holding the UML import of the
// diagram d, whose model-space FQN is diagramFQN (see DiagramFQN), with the
// same text, without building the space. Pairs are checked in mapping
// order; a requester or provider must name an instance of d. The pairs are
// a mapping.Mapping's, whose atomic-service ids are unique.
func CheckPairs(name string, pairs []mapping.Pair, d *uml.ObjectDiagram, diagramFQN string) error {
	if err := CheckMappingName(name); err != nil {
		return err
	}
	for _, p := range pairs {
		if badName(p.AtomicService) {
			return vpm.NameError(NSMappings+"."+name, p.AtomicService, false)
		}
		if _, ok := d.Instance(p.Requester); !ok {
			return fmt.Errorf("importers: mapping %q: atomic service %q: requester %q not found in diagram %q",
				name, p.AtomicService, p.Requester, diagramFQN)
		}
		if _, ok := d.Instance(p.Provider); !ok {
			return fmt.Errorf("importers: mapping %q: atomic service %q: provider %q not found in diagram %q",
				name, p.AtomicService, p.Provider, diagramFQN)
		}
	}
	return nil
}
