package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"upsim/internal/cache"
	"upsim/internal/mapping"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// WithCache attaches a content-addressed result cache (see internal/cache)
// to the generator and returns it for chaining. Subsequent Generate calls
// derive a CacheKey from their inputs and serve repeated identical requests
// from the cache without re-running Steps 6–8; concurrent identical
// requests compute once and share the result (singleflight).
//
// A cached *Result is shared verbatim between callers and must be treated
// as immutable — which every pipeline consumer already does, because a
// Result is never written after Step 8's merge returns (DESIGN.md §8).
func (g *Generator) WithCache(c *cache.Cache) *Generator {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cache = c
	return g
}

// Cache returns the cache attached with WithCache, or nil.
func (g *Generator) Cache() *cache.Cache {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cache
}

// modelDigest hashes the canonical XMI serialisation of the model.
func modelDigest(m *uml.Model) (string, error) {
	h := sha256.New()
	if err := uml.Encode(h, m); err != nil {
		return "", fmt.Errorf("core: cache key: encoding model: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CacheKey derives the content address of one generation request: a stable
// SHA-256 over the canonically-encoded model XMI, the infrastructure
// diagram name, the composite service's name and stage structure, the
// Figure-3 encoding of the mapping, the UPSIM name and every Options field
// that can change the output. Two requests collide exactly when Steps 6–8
// would produce an identical Result, which is what makes a cached Result
// safe to share.
//
// The model digest is taken by the first CacheKey and kept for the
// generator's life, so a generator that never builds a key (a pooled one
// serving only path queries) never re-encodes its model. With a cache
// attached every generation takes its key before it grafts its output onto
// the model, and a pooled generator is back to its imported state after
// ResetDerived, so the digest always covers the model as imported; the
// model must therefore not be mutated by anyone else after NewGenerator.
func (g *Generator) CacheKey(svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (string, error) {
	if svc == nil {
		return "", fmt.Errorf("core: cache key: nil service")
	}
	if mp == nil {
		return "", fmt.Errorf("core: cache key: nil mapping")
	}
	g.mu.Lock()
	if g.modelDigest == "" && g.digestErr == nil {
		g.modelDigest, g.digestErr = modelDigest(g.model)
	}
	digest, err := g.modelDigest, g.digestErr
	g.mu.Unlock()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "model=%s\ndiagram=%s\nname=%s\n", digest, g.diagramName, name)
	fmt.Fprintf(h, "service=%s stages=%v\n", svc.Name(), svc.Stages())
	if err := mp.Encode(h); err != nil {
		return "", fmt.Errorf("core: cache key: encoding mapping: %w", err)
	}
	// K, CostMetric and MaxWork all change the produced path set (ranked
	// top-k under a metric vs full enumeration; the work budget decides
	// whether the request errors), so they key the cache like the other
	// path options.
	// c=false and legacy=false are the slots of the retired parallel-edge
	// collapsing and map-based-kernel switches, kept literal so every key
	// (and the genKey in response bodies) is unchanged.
	fmt.Fprintf(h, "\nopts=%s/%s paths={d=%d p=%d c=false k=%d cost=%s work=%d} disc=%t lint=%s legacy=false\n",
		opts.Algorithm, opts.Merge,
		opts.Paths.MaxDepth, opts.Paths.MaxPaths,
		opts.Paths.K, opts.Paths.CostMetric, opts.Paths.MaxWork,
		opts.AllowDisconnected, opts.Lint)
	return hex.EncodeToString(h.Sum(nil)), nil
}
