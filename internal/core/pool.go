package core

// GeneratorPool shares built Generators across requests of the same model.
// The stateless HTTP API ships the model XML in every request, so without
// the pool each request would pay the full cold build: XML decode, the
// Step 5 check, topology extraction and CSR compilation. The pool keys
// built generators by a digest of the raw model XML and diagram name, and
// keeps one generator per key in a table bounded by least-recent use; a
// hit skips all of that and returns the resident generator.
//
// Concurrency: a generation reads only what NewGenerator built and writes
// nothing the generator holds, so every request on a model shares its one
// generator and runs without taking turns; identical generation requests
// still collapse through the shared result cache's singleflight. No
// request records a generation (Generator.Record), so pooled generators
// stay read-only and never build a model space.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"

	"upsim/internal/cache"
	"upsim/internal/obs"
	"upsim/internal/uml"
)

// Pool metrics, exposed on /metrics next to the result-cache counters.
var (
	mPoolHits = obs.NewCounter("upsim_genpool_hits_total",
		"Generator pool acquisitions served by a resident warm generator.")
	mPoolMisses = obs.NewCounter("upsim_genpool_misses_total",
		"Generator pool acquisitions that built a generator cold.")
	mPoolEvictions = obs.NewCounter("upsim_genpool_evictions_total",
		"Warm generators discarded by the pool's least-recently-used model bound.")
)

// DefaultPoolModels bounds the models a pool keeps resident.
const DefaultPoolModels = 16

// GeneratorPool is safe for concurrent use.
type GeneratorPool struct {
	cache     *cache.Cache
	maxModels int

	mu    sync.Mutex
	order *list.List               // resident *poolEntry, most recently used in front
	elems map[string]*list.Element // pool key -> order element
}

// poolEntry is one resident generator with its pool key.
type poolEntry struct {
	key string
	gen *Generator
}

// NewGeneratorPool creates a pool whose generators share the given result
// cache. maxModels bounds the models kept resident (the least recently
// used is discarded first); a non-positive value takes DefaultPoolModels.
// maxIdle is ignored: each model has exactly one shared generator. The
// parameter stays because the benchmark module calls this signature.
func NewGeneratorPool(c *cache.Cache, maxIdle, maxModels int) *GeneratorPool {
	if maxModels <= 0 {
		maxModels = DefaultPoolModels
	}
	return &GeneratorPool{
		cache:     c,
		maxModels: maxModels,
		order:     list.New(),
		elems:     make(map[string]*list.Element),
	}
}

// poolKey digests the raw model XML and diagram name. Keying on the raw
// bytes (not the canonical re-encoding) keeps the hit path free of any model
// traversal; differently-formatted XML of the same model simply builds its
// own warm line. The strings are hashed through a stack buffer, because
// converting them to []byte for the hash.Hash interface would copy the
// whole model on every Acquire.
func poolKey(modelXML, diagram string) string {
	h := sha256.New()
	var buf [512]byte
	for _, s := range [...]string{modelXML, "\x00", diagram} {
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	var out [sha256.Size]byte
	return string(h.Sum(out[:0]))
}

// Acquire returns the shared generator for the model/diagram, building it
// cold when the model is not resident. Concurrent misses each build one;
// the first to finish becomes resident and the others return it too. The
// generator is shared: callers must not Record on it.
func (p *GeneratorPool) Acquire(ctx context.Context, modelXML, diagram string) (*Generator, error) {
	key := poolKey(modelXML, diagram)
	p.mu.Lock()
	g := p.residentLocked(key)
	p.mu.Unlock()
	if g != nil {
		mPoolHits.With().Inc()
		return g, nil
	}
	mPoolMisses.With().Inc()
	m, err := uml.DecodeString(modelXML)
	if err != nil {
		return nil, err
	}
	g, err = NewGeneratorContext(ctx, m, diagram)
	if err != nil {
		return nil, err
	}
	g.WithCache(p.cache)
	p.mu.Lock()
	defer p.mu.Unlock()
	if resident := p.residentLocked(key); resident != nil {
		return resident, nil
	}
	p.elems[key] = p.order.PushFront(&poolEntry{key: key, gen: g})
	for p.order.Len() > p.maxModels {
		el := p.order.Back()
		p.order.Remove(el)
		delete(p.elems, el.Value.(*poolEntry).key)
		mPoolEvictions.With().Inc()
	}
	return g, nil
}

// residentLocked returns the resident generator under key, marking it most
// recently used, or nil. Callers hold p.mu.
func (p *GeneratorPool) residentLocked(key string) *Generator {
	el, ok := p.elems[key]
	if !ok {
		return nil
	}
	p.order.MoveToFront(el)
	return el.Value.(*poolEntry).gen
}

// Release does nothing: a generation leaves its generator as it found it,
// so there is nothing to reset or hand back. It stays because the
// benchmark module calls it.
func (p *GeneratorPool) Release(*Generator) {}

// IdleLen reports 1 when a generator for the model is resident and 0
// otherwise, for tests and stats.
func (p *GeneratorPool) IdleLen(modelXML, diagram string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.elems[poolKey(modelXML, diagram)]; ok {
		return 1
	}
	return 0
}
