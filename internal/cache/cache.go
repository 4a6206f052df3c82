// Package cache provides the content-addressed result cache behind the
// generation pipeline: a size-bounded LRU keyed by stable hashes of the
// canonically-encoded inputs (see core.Generator.CacheKey), with
// singleflight deduplication so that N concurrent identical requests
// compute the result once and share it.
//
// The cache stores opaque values (`any`); it never copies them, so cached
// values must be immutable once stored — for the generation pipeline this
// holds because a *core.Result is never mutated after Step 8's merge
// returns (see DESIGN.md §8). The paper's access pattern motivates the
// design: the same UPSIM feeds many downstream analyses (RBD, fault tree,
// responsiveness), and path discovery dominates generation cost, so
// memoizing the (model, service, mapping, options) tuple converts the
// common repeated request into a hash lookup.
//
// Entries leave the cache two ways: LRU eviction when the bound is hit, and
// — since the live-topology what-if engine (DESIGN.md §13) — targeted
// invalidation via RemoveMatching.
// Derived analysis keys ("avail|<genKey>|…", "qos|<genKey>|…",
// "explain|<genKey>|…") embed the generation content hash of the UPSIM they
// were computed from, so a RemoveMatching predicate that matches on the
// hash evicts a stale generation together with every analysis derived from
// it, while unrelated generations stay warm.
//
// Every cache feeds the process-wide obs counters
// (upsim_cache_{hits,misses,evictions,singleflight_shared,invalidations}_total),
// which upsimd exposes on GET /metrics. The daemon runs two caches — the
// generation cache above and the byte-level warm lane's response cache
// (internal/server) — so the counters sum both: a warm replay is a hit, a
// warm probe that finds nothing is a miss. Per-instance numbers are
// available via Stats.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"upsim/internal/obs"
)

// DefaultMaxEntries bounds a cache constructed with New(0).
const DefaultMaxEntries = 128

// Process-wide cache metrics, aggregated over every Cache instance (the
// daemon runs two, the generation cache and the warm lane; tests may run
// many).
var (
	mHits          = obs.NewCounter("upsim_cache_hits_total", "Cache hits, summed over every cache: the generation cache and the warm lane's response cache.")
	mMisses        = obs.NewCounter("upsim_cache_misses_total", "Cache misses, summed over every cache: results computed by the generation cache, and warm-lane probes that found no response.")
	mEvictions     = obs.NewCounter("upsim_cache_evictions_total", "Cache LRU evictions, summed over every cache: the generation cache and the warm lane's response cache.")
	mShared        = obs.NewCounter("upsim_cache_singleflight_shared_total", "Requests that joined an in-flight identical computation.")
	mInvalidations = obs.NewCounter("upsim_cache_invalidations_total", "Entries removed by explicit invalidation (RemoveMatching).")
)

// init materialises every series at zero so /metrics always exposes the
// cache family, not just the counters that have fired.
func init() {
	mHits.With().Add(0)
	mMisses.With().Add(0)
	mEvictions.With().Add(0)
	mShared.With().Add(0)
	mInvalidations.With().Add(0)
}

// Outcome classifies how Do obtained its value.
type Outcome uint8

const (
	// OutcomeMiss: the value was computed by this call.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the value was already cached.
	OutcomeHit
	// OutcomeShared: an identical computation was already in flight; this
	// call waited for it and shares its result (singleflight).
	OutcomeShared
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	case OutcomeShared:
		return "shared"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	// Hits counts lookups served from the store.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that computed (Do) or found nothing (Get).
	Misses uint64 `json:"misses"`
	// Shared counts calls that joined an in-flight identical computation.
	Shared uint64 `json:"shared"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped by explicit RemoveMatching
	// (the what-if engine's targeted cache invalidation).
	Invalidations uint64 `json:"invalidations"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
	// MaxEntries is the configured capacity.
	MaxEntries int `json:"maxEntries"`
}

// String renders the snapshot as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d shared=%d evictions=%d invalidations=%d entries=%d/%d",
		s.Hits, s.Misses, s.Shared, s.Evictions, s.Invalidations, s.Entries, s.MaxEntries)
}

// call is one in-flight computation that waiters share.
type call struct {
	done chan struct{} // closed when val/err are set
	val  any
	err  error
}

// Cache is a content-addressed, LRU-bounded result cache with singleflight
// deduplication. All methods are safe for concurrent use. The zero value is
// not usable; construct with New.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	ll         *list.List               // front = most recently used
	entries    map[string]*list.Element // key → element holding *entry
	inflight   map[string]*call

	hits, misses, shared, evictions, invalidations uint64
}

// entry is one stored key/value pair (the list element payload).
type entry struct {
	key string
	val any
}

// New returns an empty cache bounded to maxEntries values; maxEntries <= 0
// selects DefaultMaxEntries.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		maxEntries: maxEntries,
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*call),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		mHits.With().Inc()
		return el.Value.(*entry).val, true
	}
	c.misses++
	mMisses.With().Inc()
	return nil, false
}

// GetBytes is Get for callers that assembled the key in a reusable byte
// buffer. Go maps special-case `m[string(b)]` lookups to skip the string
// conversion allocation, so a warm-path probe with a pooled key buffer is
// allocation-free; the key is only materialised as a string by Add/Do on the
// miss path.
//
//upsim:hotpath
func (c *Cache) GetBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		mHits.With().Inc()
		return el.Value.(*entry).val, true
	}
	c.misses++
	mMisses.With().Inc()
	return nil, false
}

// Add stores val under key (replacing any previous value), evicting the
// least recently used entry when the capacity is exceeded.
func (c *Cache) Add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

// add stores under c.mu.
func (c *Cache) add(key string, val any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.maxEntries {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
		mEvictions.With().Inc()
	}
}

// Do returns the value for key, computing it with compute on a miss. When
// an identical computation is already in flight, Do waits for it instead of
// starting a second one and shares its result (OutcomeShared); the shared
// counter and upsim_cache_singleflight_shared_total record the join.
//
// compute runs on the calling goroutine with the caller's ctx, so a leader
// whose ctx is cancelled fails the computation for every waiter — but the
// failure is not cached, and the next request recomputes. A waiter whose
// own ctx is cancelled stops waiting and returns ctx.Err() while the
// computation continues for the others. Errors are never cached.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (any, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		mHits.With().Inc()
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, OutcomeHit, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.shared++
		mShared.With().Inc()
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, OutcomeShared, cl.err
		case <-ctx.Done():
			return nil, OutcomeShared, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.misses++
	mMisses.With().Inc()
	c.mu.Unlock()

	cl.val, cl.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.add(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, OutcomeMiss, cl.err
}

// RemoveMatching drops every entry whose key satisfies pred and returns the
// number removed. This is the targeted-invalidation primitive behind the
// live-topology what-if engine (DESIGN.md §13): derived analysis keys embed
// the generation content hash, so a predicate matching on that hash evicts
// a generation and all of its derived entries — and nothing else. Counts
// toward upsim_cache_invalidations_total.
func (c *Cache) RemoveMatching(pred func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for key, el := range c.entries {
		if !pred(key) {
			continue
		}
		c.ll.Remove(el)
		delete(c.entries, key)
		removed++
	}
	if removed > 0 {
		c.invalidations += uint64(removed)
		mInvalidations.With().Add(uint64(removed))
	}
	return removed
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Shared:        c.shared,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		MaxEntries:    c.maxEntries,
	}
}
