package depend

import (
	"fmt"
	"math"

	"upsim/internal/core"
)

// Section VII of the paper positions the UPSIM as the substrate for "various
// user-perceived dependability properties (e.g.: availability,
// performability, responsiveness)". This file implements the other two
// properties named there:
//
//   - Performability: the throughput a specific (requester, provider) pair
//     can sustain, from the Communication profile's throughput attribute on
//     every traversed link — per atomic service the widest (maximum
//     bottleneck) path, for the composite service the minimum over its
//     atomic services (every atomic service must move its data).
//
//   - Responsiveness: the probability that the service is delivered
//     *timely* for the user, modelled as the steady-state availability of
//     the sub-structure restricted to paths within a hop budget — long
//     redundant detours keep a service available but not responsive, so the
//     responsiveness of a perspective is at most its availability, with
//     equality when every redundant path fits the budget.

// AtomicThroughput is the performability result for one atomic service.
type AtomicThroughput struct {
	AtomicService string
	// Bottleneck is the best achievable throughput over all redundant
	// paths: max over paths of min over links.
	Bottleneck float64
	// BestPath is the paper-style rendering of a path achieving it.
	BestPath string
}

// ThroughputReport is the performability analysis of one UPSIM.
type ThroughputReport struct {
	PerService []AtomicThroughput
	// Service is the end-to-end sustainable throughput: the minimum over
	// atomic services.
	Service float64
}

// Throughput computes the performability report for a generation result.
// Every traversed link must carry a positive "throughput" attribute (the
// network profile's Communication stereotype).
func Throughput(res *core.Result) (*ThroughputReport, error) {
	if res == nil || res.Source == nil {
		return nil, fmt.Errorf("depend: nil generation result")
	}
	src := res.Source
	rep := &ThroughputReport{Service: math.Inf(1)}
	for _, sp := range res.Services {
		at := AtomicThroughput{AtomicService: sp.AtomicService}
		for _, p := range sp.Paths {
			bottleneck := math.Inf(1)
			for _, id := range p.Edges {
				if id < 0 || id >= src.NumLinks() {
					return nil, fmt.Errorf("depend: path references unknown edge %d", id)
				}
				l := src.LinkAt(id)
				v, ok := l.Property("throughput")
				if !ok {
					return nil, fmt.Errorf("depend: link %s has no throughput attribute (network profile not applied?)",
						l.Signature())
				}
				tp := v.AsReal()
				if tp <= 0 {
					return nil, fmt.Errorf("depend: link %s has non-positive throughput %v",
						l.Signature(), tp)
				}
				if tp < bottleneck {
					bottleneck = tp
				}
			}
			if len(p.Edges) == 0 {
				continue
			}
			if bottleneck > at.Bottleneck {
				at.Bottleneck = bottleneck
				at.BestPath = p.String()
			}
		}
		if at.Bottleneck == 0 {
			return nil, fmt.Errorf("depend: atomic service %q has no usable path", sp.AtomicService)
		}
		rep.PerService = append(rep.PerService, at)
		if at.Bottleneck < rep.Service {
			rep.Service = at.Bottleneck
		}
	}
	if len(rep.PerService) == 0 {
		return nil, fmt.Errorf("depend: result has no atomic services")
	}
	return rep, nil
}

// ResponsivenessReport relates timely delivery to plain availability.
type ResponsivenessReport struct {
	// MaxHops is the applied hop budget.
	MaxHops int
	// Responsiveness is the probability of timely service: the exact
	// availability over the budget-respecting paths only.
	Responsiveness float64
	// Availability is the unrestricted exact availability, for comparison.
	Availability float64
	// PathsWithinBudget and PathsTotal count the per-atomic-service paths
	// kept and available overall.
	PathsWithinBudget int
	PathsTotal        int
}

// Responsiveness computes the probability of timely service delivery for a
// hop budget: the exact availability of the structure restricted to
// discovered paths of at most maxHops edges. An atomic service whose every
// path exceeds the budget makes the service unresponsive (probability 0).
func Responsiveness(res *core.Result, model AvailabilityModel, maxHops int) (*ResponsivenessReport, error) {
	if maxHops < 1 {
		return nil, fmt.Errorf("depend: hop budget %d must be positive", maxHops)
	}
	st, cs, avail, err := FromResult(res, model)
	if err != nil {
		return nil, err
	}
	full, err := cs.Exact(avail)
	if err != nil {
		return nil, err
	}
	rep := &ResponsivenessReport{MaxHops: maxHops, Availability: full}

	// Count first, so the restricted structure is built only when the
	// budget drops a path, from one set slab.
	for _, sp := range res.Services {
		within := 0
		for _, p := range sp.Paths {
			if p.Len() <= maxHops {
				within++
			}
		}
		rep.PathsTotal += len(sp.Paths)
		rep.PathsWithinBudget += within
		if within == 0 {
			// No timely path: the service cannot respond within budget.
			rep.Responsiveness = 0
			return rep, nil
		}
	}
	if rep.PathsWithinBudget == rep.PathsTotal {
		// The budget kept every path: the restricted structure is the full
		// one, and so is its exact availability.
		rep.Responsiveness = full
		return rep, nil
	}
	sets := make([]PathSet, 0, rep.PathsWithinBudget)
	restricted := &ServiceStructure{AtomicServices: make([]AtomicStructure, 0, len(res.Services))}
	for i, sp := range res.Services {
		first := len(sets)
		for j, p := range sp.Paths {
			if p.Len() <= maxHops {
				sets = append(sets, st.AtomicServices[i].PathSets[j])
			}
		}
		restricted.AtomicServices = append(restricted.AtomicServices,
			AtomicStructure{Name: sp.AtomicService, PathSets: sets[first:len(sets):len(sets)]})
	}
	r, err := Compile(restricted).Exact(avail)
	if err != nil {
		return nil, err
	}
	rep.Responsiveness = r
	return rep, nil
}
