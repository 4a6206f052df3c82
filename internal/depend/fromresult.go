package depend

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"upsim/internal/core"
	"upsim/internal/obs"
	"upsim/internal/uml"
)

// mAnalyzeAlg times each §VII analysis stage, so a /metrics scrape shows
// where analysis time goes.
var mAnalyzeAlg = obs.NewHistogram("upsim_depend_algorithm_seconds",
	"Wall time of §VII dependability analysis stages.",
	obs.LatencyBuckets, "algorithm")

// AvailabilityModel selects how per-component availability is derived from
// the MTBF/MTTR attributes.
type AvailabilityModel uint8

const (
	// ModelExact uses A = MTBF/(MTBF+MTTR).
	ModelExact AvailabilityModel = iota
	// ModelFormula1 uses the paper's Formula 1, A = 1 − MTTR/MTBF.
	ModelFormula1
)

// String returns the model name.
func (m AvailabilityModel) String() string {
	switch m {
	case ModelExact:
		return "exact"
	case ModelFormula1:
		return "formula1"
	}
	return fmt.Sprintf("AvailabilityModel(%d)", uint8(m))
}

// LinkComponentID returns the component ID used for the link with the given
// endpoints and source-diagram edge index. Devices use their instance name;
// links need a synthetic ID because they are anonymous in the object
// diagram. The endpoints are ordered canonically so that the same physical
// link traversed in opposite directions by different atomic services maps
// to one component.
func LinkComponentID(a, b string, edgeID int) string {
	if b < a {
		a, b = b, a
	}
	return a + "--" + b + "#" + strconv.Itoa(edgeID)
}

// ReservedNameError reports a device whose instance name has the
// LinkComponentID form "a--b#<edge>". Such a name would read back as a link
// (ComponentSource), and would share the availability entry of the real
// link with that ID, so the analysis rejects it instead of answering for the
// wrong component.
type ReservedNameError struct {
	Name string
}

// Error names the rejected instance.
func (e *ReservedNameError) Error() string {
	return fmt.Sprintf("depend: instance name %q has the reserved link component form a--b#<edge>", e.Name)
}

// FromResult builds the service structure function and the per-component
// availability table from a generated UPSIM. Every discovered path becomes
// one minimal path set containing its devices and connectors; the
// availability of each component is computed from the MTBF/MTTR attributes
// its class (or association) carries via the availability profile. This is
// the UPSIM → RBD/FT transformation of Section VII: "entities correspond to
// components of the UPSIM" and "the availability for individual components
// can be calculated using the component attributes MTBF and MTTR, as seen
// in Formula 1".
// It returns the map-based structure, its compiled (bitset-kernel) form and
// the availability table; the compiled form shares the validation outcome
// and produces bit-identical analyses (see compile.go).
func FromResult(res *core.Result, model AvailabilityModel) (*ServiceStructure, *CompiledStructure, map[string]float64, error) {
	st, avail, err := fromResult(res, model)
	if err != nil {
		return nil, nil, nil, err
	}
	return st, compile(st, st.Components(), nil), avail, nil
}

// fromResult builds the map-based structure and availability table only —
// the shared half of FromResult, kept separate so AnalyzeContext can put the
// compile step under its own span.
func fromResult(res *core.Result, model AvailabilityModel) (*ServiceStructure, map[string]float64, error) {
	if res == nil || res.Source == nil {
		return nil, nil, fmt.Errorf("depend: nil generation result")
	}
	avail := make(map[string]float64)
	src := res.Source
	// An edge has fixed endpoints, so its component ID is minted once and
	// shared by every path that crosses it.
	linkIDs := make([]string, src.NumLinks())

	compute := func(mtbf, mttr float64) (float64, error) {
		if model == ModelFormula1 {
			return AvailabilityFormula1(mtbf, mttr)
		}
		return Availability(mtbf, mttr)
	}
	deviceAvail := func(name string) (float64, error) {
		inst, ok := res.Source.Instance(name)
		if !ok {
			return 0, fmt.Errorf("depend: path references unknown instance %q", name)
		}
		return instanceAvailability(inst, compute)
	}

	st := &ServiceStructure{}
	for _, sp := range res.Services {
		atomic := AtomicStructure{Name: sp.AtomicService}
		for _, p := range sp.Paths {
			ps := make(PathSet, 0, len(p.Nodes)+len(p.Edges))
			for _, n := range p.Nodes {
				if _, isLink := parseLinkComponent(n); isLink {
					return nil, nil, &ReservedNameError{Name: n}
				}
				if _, done := avail[n]; !done {
					a, err := deviceAvail(n)
					if err != nil {
						return nil, nil, err
					}
					avail[n] = a
				}
				ps = append(ps, n)
			}
			for i, id := range p.Edges {
				if id < 0 || id >= len(linkIDs) {
					return nil, nil, fmt.Errorf("depend: path references unknown edge %d", id)
				}
				cid := linkIDs[id]
				if cid == "" {
					cid = LinkComponentID(p.Nodes[i], p.Nodes[i+1], id)
					linkIDs[id] = cid
					a, err := linkAvailability(src.LinkAt(id), compute)
					if err != nil {
						return nil, nil, err
					}
					avail[cid] = a
				}
				ps = append(ps, cid)
			}
			atomic.PathSets = append(atomic.PathSets, ps)
		}
		st.AtomicServices = append(st.AtomicServices, atomic)
	}
	if err := st.Validate(); err != nil {
		return nil, nil, err
	}
	return st, avail, nil
}

func instanceAvailability(inst *uml.InstanceSpecification, compute func(mtbf, mttr float64) (float64, error)) (float64, error) {
	mtbf, ok := inst.Property("MTBF")
	if !ok {
		return 0, fmt.Errorf("depend: component %q has no MTBF attribute (availability profile not applied?)",
			inst.Name())
	}
	mttr, ok := inst.Property("MTTR")
	if !ok {
		return 0, fmt.Errorf("depend: component %q has no MTTR attribute", inst.Name())
	}
	a, err := compute(mtbf.AsReal(), mttr.AsReal())
	if err != nil {
		return 0, fmt.Errorf("depend: component %q: %w", inst.Name(), err)
	}
	return a, nil
}

func linkAvailability(l *uml.Link, compute func(mtbf, mttr float64) (float64, error)) (float64, error) {
	mtbf, ok := l.Property("MTBF")
	if !ok {
		return 0, fmt.Errorf("depend: link %s has no MTBF attribute (connector stereotype not applied?)",
			l.Signature())
	}
	mttr, ok := l.Property("MTTR")
	if !ok {
		return 0, fmt.Errorf("depend: link %s has no MTTR attribute", l.Signature())
	}
	a, err := compute(mtbf.AsReal(), mttr.AsReal())
	if err != nil {
		return 0, fmt.Errorf("depend: link %s: %w", l.Signature(), err)
	}
	return a, nil
}

// Report is the end-to-end analysis of one UPSIM: the exact user-perceived
// availability plus the approximations, for direct tabulation by the
// experiment harness.
type Report struct {
	Exact                float64
	RBDApprox            float64
	FTApprox             float64 // 1 − P(top event); equals RBDApprox by duality
	MonteCarlo           float64
	MCStdErr             float64
	DowntimePerYearHours float64
	Components           int
}

// AnalyzeOptions tunes the analysis pipeline.
//
// Deprecated: the analysis always runs on the compiled kernel. The type
// remains only because the benchmark ladder (bench/ladder.go) builds it.
type AnalyzeOptions struct {
	// Legacy is ignored; the map-based evaluation is a test oracle
	// (oracle_test.go), not a selectable kernel.
	Legacy bool
}

// Analyze runs the full Section VII analysis pipeline on a generation
// result: derive component availabilities, build the structure, evaluate
// exactly, by RBD/FT approximation and by simulation.
func Analyze(res *core.Result, model AvailabilityModel, mcSamples int, seed int64) (*Report, error) {
	return AnalyzeContext(context.Background(), res, model, mcSamples, seed)
}

// AnalyzeWithOptions is AnalyzeContext; opts is ignored.
//
// Deprecated: use AnalyzeContext. It remains only because the benchmark
// ladder (bench/ladder.go) calls it.
func AnalyzeWithOptions(ctx context.Context, res *core.Result, model AvailabilityModel, mcSamples int, seed int64, _ AnalyzeOptions) (*Report, error) {
	return AnalyzeContext(ctx, res, model, mcSamples, seed)
}

// AnalyzeContext is Analyze under a context: when ctx carries an obs span,
// the analysis is recorded as an "avail.analyze" span with one child per
// evaluation method (structure extraction, kernel compilation, exact, RBD,
// fault tree, Monte Carlo). It evaluates on the compiled kernel.
func AnalyzeContext(ctx context.Context, res *core.Result, model AvailabilityModel, mcSamples int, seed int64) (*Report, error) {
	ctx, span := obs.StartSpan(ctx, "avail.analyze")
	defer span.End()
	stage := func(name string) *obs.Span {
		_, sp := obs.StartSpan(ctx, name)
		return sp
	}
	observe := func(alg string, start time.Time) {
		mAnalyzeAlg.With(alg).Observe(time.Since(start).Seconds())
	}

	sp, t0 := stage("avail.structure"), time.Now()
	st, avail, err := fromResult(res, model)
	sp.End()
	observe("structure", t0)
	if err != nil {
		return nil, err
	}
	// fromResult validated st; compile reuses that and the component list.
	names := st.Components()
	span.SetAttr("components", len(names))

	sp, t0 = stage("depend.compile"), time.Now()
	cs := compile(st, names, nil)
	sp.End()
	observe("compile", t0)

	sp, t0 = stage("avail.exact"), time.Now()
	exact, err := cs.Exact(avail)
	sp.End()
	observe("exact", t0)
	if err != nil {
		return nil, err
	}

	// Exact has checked every availability, so the RBD and fault-tree
	// readings evaluate in place, without building their trees.
	sp, t0 = stage("avail.rbd"), time.Now()
	rbd := st.seriesParallel(avail)
	sp.End()
	observe("rbd", t0)

	sp, t0 = stage("avail.fault_tree"), time.Now()
	topQ := st.topEventProbability(avail)
	sp.End()
	observe("fault_tree", t0)

	sp, t0 = stage("avail.montecarlo"), time.Now()
	sp.SetAttr("samples", mcSamples)
	mc, se, err := cs.MonteCarlo(avail, mcSamples, seed)
	sp.End()
	observe("montecarlo", t0)
	if err != nil {
		return nil, err
	}
	return &Report{
		Exact:                exact,
		RBDApprox:            rbd,
		FTApprox:             1 - topQ,
		MonteCarlo:           mc,
		MCStdErr:             se,
		DowntimePerYearHours: (1 - exact) * 365 * 24,
		Components:           len(names),
	}, nil
}
