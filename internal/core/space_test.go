package core_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/mapping"
	"upsim/internal/pathdisc"
	"upsim/internal/rbdgen"
	"upsim/internal/service"
	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// usiSide is one case-study model with its generator: the printing and
// backup services are modelled before the generator is built.
type usiSide struct {
	m        *uml.Model
	g        *core.Generator
	printing *service.Composite
	backup   *service.Composite
}

func newUSISide(t *testing.T) *usiSide {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	printing, err := casestudy.PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := casestudy.BackupService(m)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGenerator(m, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	return &usiSide{m: m, g: g, printing: printing, backup: backup}
}

// dumpSpace lists every entity (FQN, typing relations, value) in
// depth-first creation order, then every live relation (ends, name, value)
// in creation order.
func dumpSpace(s *vpm.ModelSpace) []string {
	var out []string
	s.Walk(func(e *vpm.Entity) bool {
		var types []string
		for _, r := range s.RelationsFrom(e, "instanceOf") {
			types = append(types, r.String())
		}
		out = append(out, fmt.Sprintf("E %s : %s = %q", e.FQN(), strings.Join(types, ","), e.Value()))
		return true
	})
	for _, r := range s.Relations("") {
		out = append(out, "R "+r.String())
	}
	return out
}

func deviceAvailability(t *testing.T, m *uml.Model) map[string]float64 {
	t.Helper()
	d, _ := m.Diagram(casestudy.DiagramName)
	avail := map[string]float64{}
	for _, inst := range d.Instances() {
		mtbf, _ := inst.Property("MTBF")
		mttr, _ := inst.Property("MTTR")
		a, err := depend.Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			t.Fatal(err)
		}
		avail[inst.Name()] = a
	}
	return avail
}

// spaceScripts are generator histories the lazily built space must
// reproduce. Each runs once against a generator whose space was built at
// construction and once against one whose space is built afterwards.
// mustGenerate records each generation; a failed one records nothing.
var spaceScripts = []struct {
	name string
	run  func(t *testing.T, u *usiSide)
}{
	{"several generates", func(t *testing.T, u *usiSide) {
		mustGenerate(t, u, u.printing, casestudy.TableIMapping(), "fig11", core.Options{})
		mustGenerate(t, u, u.printing, casestudy.T15P3Mapping(), "fig12", core.Options{Paths: pathdisc.Options{K: 1}})
		mustGenerate(t, u, u.backup, casestudy.BackupMapping(), "backup", core.Options{})
	}},
	{"failed generates", func(t *testing.T, u *usiSide) {
		// Step 6 fails on a pair.
		ghost := mapping.New()
		for _, p := range casestudy.TableIMapping().Pairs() {
			if p.AtomicService == "Send documents" {
				p.Provider = "ghost"
			}
			if err := ghost.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		failGenerate(t, u, u.printing, ghost, "ghost", core.Options{})
		// Step 7 fails after Step 6 passed.
		shallow := core.Options{Paths: pathdisc.Options{MaxDepth: 1}}
		failGenerate(t, u, u.printing, casestudy.TableIMapping(), "shallow", shallow)
		mustGenerate(t, u, u.printing, casestudy.TableIMapping(), "after", core.Options{})
	}},
	{"dotted name first", func(t *testing.T, u *usiSide) {
		failGenerate(t, u, u.printing, casestudy.TableIMapping(), "fig.11", core.Options{})
		mustGenerate(t, u, u.printing, casestudy.TableIMapping(), "fig11", core.Options{})
	}},
	{"mapping changed after generate", func(t *testing.T, u *usiSide) {
		mp := casestudy.TableIMapping()
		mustGenerate(t, u, u.printing, mp, "fig11", core.Options{})
		if _, err := mp.RemapComponent("t1", "t15"); err != nil {
			t.Fatal(err)
		}
		if err := mp.Add(mapping.Pair{AtomicService: "Extra", Requester: "t2", Provider: "printS"}); err != nil {
			t.Fatal(err)
		}
	}},
	{"model grows after construction", func(t *testing.T, u *usiSide) {
		mustGenerate(t, u, u.printing, casestudy.TableIMapping(), "fig11", core.Options{})
		// Elements the generator never checked, named so the import would
		// reject them: the space holds the model as NewGenerator saw it.
		if err := u.m.AddProfile(uml.NewProfile("late.profile")); err != nil {
			t.Fatal(err)
		}
		if _, err := u.m.AddClass("late.class"); err != nil {
			t.Fatal(err)
		}
		u.m.NewObjectDiagram("late.diagram")
		act, err := u.m.NewActivity("late")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := act.AddAction("initial"); err != nil {
			t.Fatal(err)
		}
		mustGenerate(t, u, u.printing, casestudy.T15P3Mapping(), "fig12", core.Options{})
	}},
	{"rbd", func(t *testing.T, u *usiSide) {
		mustGenerate(t, u, u.printing, casestudy.TableIMapping(), "fig11", core.Options{})
		if _, err := rbdgen.Transform(spaceOf(t, u.g), "fig11", deviceAvailability(t, u.m)); err != nil {
			t.Fatal(err)
		}
		mustGenerate(t, u, u.printing, casestudy.T15P3Mapping(), "fig12", core.Options{})
		mustGenerate(t, u, u.backup, casestudy.BackupMapping(), "backup", core.Options{})
	}},
}

// spaceOf is the generator's model space, built on first use.
func spaceOf(t *testing.T, g *core.Generator) *vpm.ModelSpace {
	t.Helper()
	s, err := g.Space()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustGenerate generates and records.
func mustGenerate(t *testing.T, u *usiSide, svc *service.Composite, mp *mapping.Mapping, name string, opts core.Options) {
	t.Helper()
	res, err := u.g.Generate(svc, mp, name, opts)
	if err != nil {
		t.Fatalf("Generate(%s): %v", name, err)
	}
	if err := u.g.Record(res); err != nil {
		t.Fatalf("Record(%s): %v", name, err)
	}
}

func failGenerate(t *testing.T, u *usiSide, svc *service.Composite, mp *mapping.Mapping, name string, opts core.Options) {
	t.Helper()
	if _, err := u.g.Generate(svc, mp, name, opts); err == nil {
		t.Fatalf("Generate(%s) succeeded, want an error", name)
	}
}

// TestLazySpaceEqualsEager: a space built on first read after any history
// of recorded generations and failures equals the space Record grows when
// it is built at construction — entity for entity and relation for
// relation, in creation order.
func TestLazySpaceEqualsEager(t *testing.T) {
	for _, sc := range spaceScripts {
		t.Run(sc.name, func(t *testing.T) {
			eager, lazy := newUSISide(t), newUSISide(t)
			spaceOf(t, eager.g)
			sc.run(t, eager)
			sc.run(t, lazy)
			want, got := dumpSpace(spaceOf(t, eager.g)), dumpSpace(spaceOf(t, lazy.g))
			if !slices.Equal(got, want) {
				t.Fatalf("lazy space differs from eager space:\n%s", firstDiff(want, got))
			}
		})
	}
}

// TestSpaceReportsBrokenModel: an element of the model changed in place
// after NewGenerator so that the import rejects it fails the first Space
// call with the import's error; the generator keeps generating, and a
// later Space call reports the same error.
func TestSpaceReportsBrokenModel(t *testing.T) {
	u := newUSISide(t)
	d, _ := u.m.Diagram(casestudy.DiagramName)
	if _, err := d.AddInstance("t.99", u.m.MustClass("Comp")); err != nil {
		t.Fatal(err)
	}
	const want = `core: building the model space: vpm: entity name "t.99" contains FQN separator`
	for i := 0; i < 2; i++ {
		if s, err := u.g.Space(); s != nil || err == nil || err.Error() != want {
			t.Fatalf("Space() = %v, %v; want nil, %s", s, err, want)
		}
		mustGenerate(t, u, u.printing, casestudy.TableIMapping(), fmt.Sprintf("fig11-%d", i), core.Options{})
	}
}

func firstDiff(want, got []string) string {
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			return fmt.Sprintf("line %d: want %s\n         got  %s", i, want[i], got[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(want), len(got))
}

// TestFirstSpaceConcurrentWithGenerate builds the space while a
// generation runs on the same generator; neither disturbs the other, and
// recording the result afterwards gives the space of a generator that
// recorded it with its space in place.
func TestFirstSpaceConcurrentWithGenerate(t *testing.T) {
	eager := newUSISide(t)
	spaceOf(t, eager.g)
	mustGenerate(t, eager, eager.printing, casestudy.TableIMapping(), "fig11", core.Options{})
	want := dumpSpace(spaceOf(t, eager.g))
	for i := 0; i < 20; i++ {
		lazy := newUSISide(t)
		var (
			wg  sync.WaitGroup
			res *core.Result
			err error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := lazy.g.Space(); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			res, err = lazy.g.Generate(lazy.printing, casestudy.TableIMapping(), "fig11", core.Options{})
		}()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := lazy.g.Record(res); err != nil {
			t.Fatal(err)
		}
		if got := dumpSpace(spaceOf(t, lazy.g)); !slices.Equal(got, want) {
			t.Fatalf("run %d: space differs:\n%s", i, firstDiff(want, got))
		}
	}
}
