package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

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
// serving only path queries) never re-encodes its model. Generate never
// changes the model, so the digest covers the model as imported unless
// Record listed a diagram before the first key was taken; the model must
// not be mutated by anyone else after NewGenerator.
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
	var buf [2048]byte
	sum := sha256.Sum256(appendKeyText(buf[:0], digest, g.diagramName, name, svc, mp, opts))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), nil
}

// appendKeyText appends the text CacheKey hashes:
// "model=…\ndiagram=…\nname=…\n", "service=… stages=[[a b] [c]]\n" (the
// stages as %v prints a [][]string), the mapping's Figure 3 encoding, then
// the option fields. Keys reach response bodies as genKey, so the text
// must not change; TestCacheKeyMatchesFormatted holds it to the equivalent
// fmt.Fprintf derivation.
//
//upsim:hotpath once per generation request
func appendKeyText(b []byte, digest, diagram, name string, svc *service.Composite, mp *mapping.Mapping, opts Options) []byte {
	b = append(b, "model="...)
	b = append(b, digest...)
	b = append(b, "\ndiagram="...)
	b = append(b, diagram...)
	b = append(b, "\nname="...)
	b = append(b, name...)
	b = append(b, "\nservice="...)
	b = append(b, svc.Name()...)
	b = append(b, " stages="...)
	b = svc.AppendStages(b)
	b = append(b, '\n')
	b = mp.AppendXML(b)
	// K, CostMetric and MaxWork all change the produced path set (ranked
	// top-k under a metric vs full enumeration; the work budget decides
	// whether the request errors), so they key the cache like the other
	// path options.
	// recursive-dfs, c=false and legacy=false are the slots of the retired
	// Step 7 algorithm selector, parallel-edge collapsing and
	// map-based-kernel switches, kept literal so every key (and the genKey
	// in response bodies) is unchanged.
	b = append(b, "\nopts=recursive-dfs/"...)
	b = append(b, opts.Merge.String()...)
	b = append(b, " paths={d="...)
	b = strconv.AppendInt(b, int64(opts.Paths.MaxDepth), 10)
	b = append(b, " p="...)
	b = strconv.AppendInt(b, int64(opts.Paths.MaxPaths), 10)
	b = append(b, " c=false k="...)
	b = strconv.AppendInt(b, int64(opts.Paths.K), 10)
	b = append(b, " cost="...)
	b = append(b, opts.Paths.CostMetric.String()...)
	b = append(b, " work="...)
	b = strconv.AppendInt(b, int64(opts.Paths.MaxWork), 10)
	b = append(b, "} disc="...)
	b = strconv.AppendBool(b, opts.AllowDisconnected)
	b = append(b, " lint="...)
	b = append(b, opts.Lint.String()...)
	return append(b, " legacy=false\n"...)
}
