package server

// POST /api/v1/whatif — the HTTP face of the live-topology what-if engine
// (internal/whatif, DESIGN.md §13). The route is stateless like the rest of
// the API: the model and the service registrations travel in the request,
// the engine is assembled per call on top of the shared generation cache
// (so repeated registrations of unchanged services are hash lookups), and
// the response carries per-service availability deltas, targeted cache
// invalidation counts, and the critical-component ranking.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"upsim/internal/core"
	"upsim/internal/explain"
	"upsim/internal/topology"
	"upsim/internal/whatif"
)

// What-if modes: transient failure analysis, permanent topology change, and
// critical-component ranking.
const (
	WhatIfModeFailure  = "failure"
	WhatIfModeApply    = "apply"
	WhatIfModeCritical = "critical"
)

// whatifServiceInput registers one composite service with the engine.
type whatifServiceInput struct {
	// Service names an activity of the model.
	Service string `json:"service"`
	// MappingXML is the Figure 3 mapping document for this service.
	MappingXML string `json:"mappingXml"`
	// Name names the registration (default: the activity name).
	Name string `json:"name,omitempty"`
}

// whatifRequest drives one engine invocation.
type whatifRequest struct {
	modelInput
	// Services lists the composite services to register; each is generated
	// through the shared cache before the engine runs.
	Services []whatifServiceInput `json:"services"`
	// Mode selects the question: "failure" (default; transient), "apply"
	// (permanent change), or "critical" (ranking only).
	Mode string `json:"mode,omitempty"`
	// Failure names the failed components/links for mode "failure".
	Failure whatif.Failure `json:"failure,omitempty"`
	// Deltas lists the topology mutations for mode "apply".
	Deltas []whatif.Delta `json:"deltas,omitempty"`
	// Top bounds the critical-component ranking (0 disables the ranking for
	// modes "failure"/"apply"; mode "critical" defaults to everything).
	Top int `json:"top,omitempty"`
	// Formula1 selects the paper's approximation for component
	// availability.
	Formula1 bool `json:"formula1,omitempty"`
	// CurrentModelXML, when set, is fingerprint-checked against every
	// registration (explain.Validate) before the engine answers: any stale
	// generation fails the request with 409 and self-invalidates its cache
	// entries.
	CurrentModelXML string `json:"currentModelXml,omitempty"`
	// CurrentDiagram names the current topology diagram (defaults to the
	// request diagram name).
	CurrentDiagram string `json:"currentDiagram,omitempty"`
}

// whatifValidation is one registration's freshness verdict.
type whatifValidation struct {
	Service string `json:"service"`
	GenKey  string `json:"genKey"`
	Fresh   bool   `json:"fresh"`
	// Issues lists the drift explain.Validate found (empty when fresh).
	Issues []explain.Issue `json:"issues,omitempty"`
}

// whatifResponse is the 200 body.
type whatifResponse struct {
	Mode string `json:"mode"`
	// Services is the engine's registration view (baselines, staleness).
	Services []whatif.ServiceStatus `json:"services"`
	// Impact is set for mode "failure".
	Impact *whatif.ImpactReport `json:"impact,omitempty"`
	// Apply is set for mode "apply".
	Apply *whatif.ApplyReport `json:"apply,omitempty"`
	// Critical is the ranking (mode "critical", or any mode with top > 0).
	Critical []whatif.CriticalComponent `json:"critical,omitempty"`
	// Validations reports the freshness check when currentModelXml was
	// given (every entry fresh, or the request would have been a 409).
	Validations []whatifValidation `json:"validations,omitempty"`
}

// staleGenerationResponse is the 409 body: the topology drifted underneath
// at least one registered generation.
type staleGenerationResponse struct {
	errorResponse
	// Validations carries the per-service freshness verdicts with the
	// concrete drift issues.
	Validations []whatifValidation `json:"validations"`
	// InvalidatedKeys counts the cache entries of the stale generations
	// that were evicted (self-invalidation).
	InvalidatedKeys int `json:"invalidatedKeys"`
}

func (a *api) handleWhatIf(ctx context.Context, req *whatifRequest) (any, error) {
	if len(req.Services) == 0 {
		return nil, errors.New("services is required (at least one registration)")
	}
	mode := req.Mode
	if mode == "" {
		mode = WhatIfModeFailure
	}
	model := availabilityModel(req.Formula1)

	// The engine owns and mutates its live topology: a copy of the pooled
	// model's diagram, the graph the registrations are generated against.
	if err := req.modelInput.validate(); err != nil {
		return nil, err
	}
	gen, err := a.generators.Acquire(ctx, req.ModelXML, req.Diagram)
	if err != nil {
		return nil, err
	}
	d, _ := gen.Model().Diagram(req.Diagram)
	eng := whatif.New(topology.FromObjectDiagram(d), a.cache)
	a.generators.Release(gen)
	results := make(map[string]*core.Result, len(req.Services))
	for _, s := range req.Services {
		gr := generateRequest{
			modelInput: req.modelInput,
			Service:    s.Service,
			MappingXML: s.MappingXML,
			Name:       s.Name,
		}
		if gr.Name == "" {
			gr.Name = s.Service
		}
		res, err := a.generate(ctx, &gr)
		if err != nil {
			return nil, fmt.Errorf("service %q: %w", s.Service, err)
		}
		if err := eng.Register(gr.Name, res.Key, res, model); err != nil {
			return nil, unprocessable(err)
		}
		results[gr.Name] = res
	}

	resp := whatifResponse{Mode: mode}

	// Freshness gate: against a drifted topology the registered generations
	// are lies; evict them and refuse with the concrete issues.
	if strings.TrimSpace(req.CurrentModelXML) != "" {
		d, err := req.currentDiagram(req.CurrentModelXML, req.CurrentDiagram)
		if err != nil {
			return nil, err
		}
		var (
			vals  []whatifValidation
			stale []string
		)
		for _, s := range eng.Services() {
			v, err := explain.Validate(ctx, results[s.Service], d)
			if err != nil {
				return nil, unprocessable(fmt.Errorf("whatif: validate %q: %w", s.Service, err))
			}
			vals = append(vals, whatifValidation{Service: s.Service, GenKey: s.GenKey, Fresh: v.Fresh, Issues: v.Issues})
			if !v.Fresh {
				stale = append(stale, s.Service)
			}
		}
		if len(stale) > 0 {
			evicted := eng.Invalidate("generation fingerprint drifted from current topology", stale...)
			msg := fmt.Sprintf("%d of %d registered generations are stale against the current topology", len(stale), len(vals))
			return nil, &statusError{status: http.StatusConflict, err: errors.New(msg), body: staleGenerationResponse{
				errorResponse:   errorResponse{Error: msg},
				Validations:     vals,
				InvalidatedKeys: evicted,
			}}
		}
		resp.Validations = vals
	}

	switch mode {
	case WhatIfModeFailure:
		impact, err := eng.Impact(req.Failure)
		if err != nil {
			return nil, unprocessable(err)
		}
		resp.Impact = impact
	case WhatIfModeApply:
		if len(req.Deltas) == 0 {
			return nil, fmt.Errorf("mode %q needs at least one delta", mode)
		}
		rep, err := eng.Apply(req.Deltas...)
		if err != nil {
			return nil, unprocessable(err)
		}
		resp.Apply = rep
	case WhatIfModeCritical:
		// Ranking handled below for every mode.
	default:
		return nil, fmt.Errorf("unknown mode %q (want %q, %q or %q)",
			mode, WhatIfModeFailure, WhatIfModeApply, WhatIfModeCritical)
	}

	if mode == WhatIfModeCritical || req.Top > 0 {
		crit, err := eng.Critical(req.Top)
		if err != nil {
			return nil, unprocessable(err)
		}
		resp.Critical = crit
	}

	resp.Services = eng.Services()
	return resp, nil
}
