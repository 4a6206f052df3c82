// Package workspace implements the on-disk project layout that stands in
// for the paper's Eclipse workspace: one directory holding the UML model,
// any number of service mappings (one XML file per user perspective, the
// artefact that changes between perspectives) and optional VTCL pattern
// files:
//
//	<dir>/model.xml            the UML model (profiles, classes, diagrams,
//	                           activities)
//	<dir>/mappings/<name>.xml  Figure 3 service mappings
//	<dir>/patterns/<name>.vtcl declarative model queries
//
// Load reads and validates everything eagerly so that a broken artefact is
// reported at open time with its file name, not deep inside a generation
// run.
package workspace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"upsim/internal/mapping"
	"upsim/internal/uml"
	"upsim/internal/vpm"
	"upsim/internal/vtcl"
)

// Layout constants.
const (
	ModelFile   = "model.xml"
	MappingsDir = "mappings"
	PatternsDir = "patterns"
)

// Workspace is a loaded project directory.
type Workspace struct {
	Dir      string
	Model    *uml.Model
	mappings map[string]*mapping.Mapping
	patterns map[string][]*vpm.Pattern
}

// Init creates the directory layout and writes the model. The directory may
// exist but must not already contain a model.
func Init(dir string, m *uml.Model) (*Workspace, error) {
	if m == nil {
		return nil, fmt.Errorf("workspace: nil model")
	}
	if err := os.MkdirAll(filepath.Join(dir, MappingsDir), 0o755); err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, PatternsDir), 0o755); err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	modelPath := filepath.Join(dir, ModelFile)
	if _, err := os.Stat(modelPath); err == nil {
		return nil, fmt.Errorf("workspace: %s already exists", modelPath)
	}
	w := &Workspace{
		Dir:      dir,
		Model:    m,
		mappings: make(map[string]*mapping.Mapping),
		patterns: make(map[string][]*vpm.Pattern),
	}
	if err := w.SaveModel(); err != nil {
		return nil, err
	}
	return w, nil
}

// Load opens a workspace directory, reading and validating the model, every
// mapping and every pattern file.
func Load(dir string) (*Workspace, error) {
	f, err := os.Open(filepath.Join(dir, ModelFile))
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	defer f.Close()
	m, err := uml.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", ModelFile, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", ModelFile, err)
	}
	w := &Workspace{
		Dir:      dir,
		Model:    m,
		mappings: make(map[string]*mapping.Mapping),
		patterns: make(map[string][]*vpm.Pattern),
	}
	if err := w.loadDir(MappingsDir, ".xml", func(name string, data *os.File) error {
		mp, err := mapping.Parse(data)
		if err != nil {
			return err
		}
		w.mappings[name] = mp
		return nil
	}); err != nil {
		return nil, err
	}
	if err := w.loadDir(PatternsDir, ".vtcl", func(name string, data *os.File) error {
		src, err := os.ReadFile(data.Name())
		if err != nil {
			return err
		}
		pats, err := vtcl.Parse(string(src))
		if err != nil {
			return err
		}
		w.patterns[name] = pats
		return nil
	}); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Workspace) loadDir(sub, ext string, load func(name string, f *os.File) error) error {
	dir := filepath.Join(w.Dir, sub)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil // optional directory
	}
	if err != nil {
		return fmt.Errorf("workspace: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("workspace: %w", err)
		}
		name := strings.TrimSuffix(e.Name(), ext)
		loadErr := load(name, f)
		f.Close()
		if loadErr != nil {
			return fmt.Errorf("workspace: %s: %w", path, loadErr)
		}
	}
	return nil
}

// SaveModel writes the model back to model.xml.
func (w *Workspace) SaveModel() error {
	f, err := os.Create(filepath.Join(w.Dir, ModelFile))
	if err != nil {
		return fmt.Errorf("workspace: %w", err)
	}
	defer f.Close()
	if err := uml.Encode(f, w.Model); err != nil {
		return err
	}
	return f.Close()
}

// SaveMapping stores a mapping under mappings/<name>.xml and registers it.
func (w *Workspace) SaveMapping(name string, mp *mapping.Mapping) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("workspace: invalid mapping name %q", name)
	}
	if mp == nil {
		return fmt.Errorf("workspace: nil mapping")
	}
	path := filepath.Join(w.Dir, MappingsDir, name+".xml")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("workspace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workspace: %w", err)
	}
	defer f.Close()
	if err := mp.Encode(f); err != nil {
		return err
	}
	w.mappings[name] = mp
	return f.Close()
}

// MappingNames returns the sorted loaded mapping names.
func (w *Workspace) MappingNames() []string {
	out := make([]string, 0, len(w.mappings))
	for n := range w.mappings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PatternFileNames returns the sorted loaded pattern file names.
func (w *Workspace) PatternFileNames() []string {
	out := make([]string, 0, len(w.patterns))
	for n := range w.patterns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Summary renders a one-line inventory of the workspace.
func (w *Workspace) Summary() string {
	return fmt.Sprintf("%s: %s; %d mappings %v; %d pattern files %v",
		w.Dir, uml.Summary(w.Model),
		len(w.mappings), w.MappingNames(),
		len(w.patterns), w.PatternFileNames())
}
