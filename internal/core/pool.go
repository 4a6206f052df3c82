package core

// GeneratorPool recycles Generators across requests of the same model. The
// stateless HTTP API ships the model XML in every request, so before this
// pool each warmish request paid the full cold build: XML decode, the Step 5
// check, topology extraction and CSR compilation. The pool keys built
// generators by a digest of the raw model XML and diagram name; a hit skips
// all of that and reuses the generator, whose derived artifacts were
// unhooked at Release time (Generator.ResetDerived). No request reads a
// generator's model space, so pooled generators park without one.
//
// Concurrency: concurrent Acquires of the same model get distinct Generator
// instances (each generator serialises its own pipeline internally), so
// request parallelism is preserved; identical generation requests still
// collapse through the shared result cache's singleflight.

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
		"Generator pool acquisitions served by an idle warm generator.")
	mPoolMisses = obs.NewCounter("upsim_genpool_misses_total",
		"Generator pool acquisitions that built a generator cold.")
	mPoolEvictions = obs.NewCounter("upsim_genpool_evictions_total",
		"Warm generators discarded by per-model or LRU bounds.")
)

// Pool sizing defaults: a handful of idle generators per model covers batch
// fan-out, and the model LRU bounds total retained spaces.
const (
	DefaultPoolIdlePerModel = 4
	DefaultPoolModels       = 16
)

// GeneratorPool is safe for concurrent use.
type GeneratorPool struct {
	cache     *cache.Cache
	maxIdle   int
	maxModels int

	mu    sync.Mutex
	idle  map[string][]*Generator
	order *list.List               // model digests, most recently used in front
	elems map[string]*list.Element // digest -> order element
}

// NewGeneratorPool creates a pool whose generators share the given result
// cache. maxIdle bounds idle generators retained per model, maxModels the
// number of distinct models tracked (least recently used models are
// discarded whole); non-positive values take the defaults.
func NewGeneratorPool(c *cache.Cache, maxIdle, maxModels int) *GeneratorPool {
	if maxIdle <= 0 {
		maxIdle = DefaultPoolIdlePerModel
	}
	if maxModels <= 0 {
		maxModels = DefaultPoolModels
	}
	return &GeneratorPool{
		cache:     c,
		maxIdle:   maxIdle,
		maxModels: maxModels,
		idle:      make(map[string][]*Generator),
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

// Acquire returns a generator for the model/diagram, reusing an idle warm
// one when available and building cold otherwise. The caller owns the
// generator until Release.
func (p *GeneratorPool) Acquire(ctx context.Context, modelXML, diagram string) (*Generator, error) {
	key := poolKey(modelXML, diagram)
	p.mu.Lock()
	if gens := p.idle[key]; len(gens) > 0 {
		g := gens[len(gens)-1]
		gens[len(gens)-1] = nil
		p.idle[key] = gens[:len(gens)-1]
		p.touchLocked(key)
		p.mu.Unlock()
		mPoolHits.With().Inc()
		return g, nil
	}
	p.mu.Unlock()
	mPoolMisses.With().Inc()
	m, err := uml.DecodeString(modelXML)
	if err != nil {
		return nil, err
	}
	g, err := NewGeneratorContext(ctx, m, diagram)
	if err != nil {
		return nil, err
	}
	g.WithCache(p.cache)
	g.poolKey = key
	return g, nil
}

// Release resets the generator's derived state and parks it for reuse; when
// the per-model idle bound is reached the generator is dropped instead.
func (p *GeneratorPool) Release(g *Generator) {
	if g == nil {
		return
	}
	g.ResetDerived()
	key := g.poolKey
	if key == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[key]) < p.maxIdle {
		p.idle[key] = append(p.idle[key], g)
		p.touchLocked(key)
		p.evictLocked()
		return
	}
	mPoolEvictions.With().Inc()
}

// touchLocked marks the model as most recently used, creating its LRU entry
// if absent. Callers hold p.mu.
func (p *GeneratorPool) touchLocked(key string) {
	if el, ok := p.elems[key]; ok {
		p.order.MoveToFront(el)
		return
	}
	p.elems[key] = p.order.PushFront(key)
}

// evictLocked trims least-recently-used models beyond the bound, dropping
// their idle generators. Callers hold p.mu.
func (p *GeneratorPool) evictLocked() {
	for p.order.Len() > p.maxModels {
		el := p.order.Back()
		key := el.Value.(string)
		p.order.Remove(el)
		delete(p.elems, key)
		mPoolEvictions.With().Add(uint64(len(p.idle[key])))
		delete(p.idle, key)
	}
}

// IdleLen reports the idle generators currently parked for the model, for
// tests and stats.
func (p *GeneratorPool) IdleLen(modelXML, diagram string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[poolKey(modelXML, diagram)])
}
