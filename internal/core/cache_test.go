package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"upsim/internal/cache"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/testutil"
)

func TestWithCacheHitSkipsPipeline(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16)
	if g.WithCache(c) != g {
		t.Fatal("WithCache must return the receiver for chaining")
	}
	if g.Cache() != c {
		t.Fatal("Cache() does not return the attached cache")
	}

	cold, err := g.Generate(f.svc, f.mp, "cached", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The second identical request must come from the cache: same pointer,
	// hit counted, and the trace carries a "cache" span but no step7 span
	// (discovery did not run again).
	ctx, root := obs.StartSpan(context.Background(), "warm")
	warm, err := g.GenerateContext(ctx, f.svc, f.mp, "cached", Options{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Error("warm request did not return the shared cached Result")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %s; want 1 hit, 1 miss, 1 entry", s)
	}
	names := map[string]bool{}
	walkSpans(root, func(sp *obs.Span) { names[sp.Name()] = true })
	if !names["cache"] {
		t.Errorf("warm trace lacks the cache span: %s", root.Render())
	}
	if names["step7.pathdisc"] {
		t.Errorf("warm trace re-ran discovery: %s", root.Render())
	}

	// A different UPSIM name is a different content address.
	other, err := g.Generate(f.svc, f.mp, "cached-2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if other == cold {
		t.Error("request with different name shared the cached Result")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("misses = %d, want 2", s.Misses)
	}
}

func TestCacheKeyDerivation(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.CacheKey(f.svc, f.mp, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}
	again, err := g.CacheKey(f.svc, f.mp, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Error("identical request derived different keys")
	}
	// Everything that changes the produced Result must change the key.
	variants := map[string]Options{
		"ablation": {Paths: pathdisc.Options{K: 1}},
		"merge":    {Merge: MergeTraversed},
		"depth":    {Paths: pathdisc.Options{MaxDepth: 3}},
		"disc":     {AllowDisconnected: true},
		"lint":     {Lint: LintWarn},
	}
	seen := map[string]string{base: "base"}
	for label, opts := range variants {
		k, err := g.CacheKey(f.svc, f.mp, "u", opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("options variant %q collides with %q", label, prev)
		}
		seen[k] = label
	}
	if k, _ := g.CacheKey(f.svc, f.mp, "other-name", Options{}); k == base {
		t.Error("UPSIM name not part of the key")
	}
	mp2 := withPair(t, f.mp, "fetch", "iso", "srv")
	if k, _ := g.CacheKey(f.svc, mp2, "u", Options{}); k == base {
		t.Error("mapping change not part of the key")
	}
	if _, err := g.CacheKey(nil, f.mp, "u", Options{}); err == nil {
		t.Error("nil service must fail")
	}
	if _, err := g.CacheKey(f.svc, nil, "u", Options{}); err == nil {
		t.Error("nil mapping must fail")
	}
}

// TestGeneratorSingleflightStress hammers one cached Generator with 32
// goroutines issuing the identical request and asserts exactly-once compute
// through the singleflight counters: 1 miss, 31 hits-or-shares, one shared
// Result pointer.
func TestGeneratorSingleflightStress(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16)
	g.WithCache(c)

	const goroutines = 32
	var (
		wg      sync.WaitGroup
		results [goroutines]*Result
		errs    [goroutines]error
	)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = g.Generate(f.svc, f.mp, "stress", Options{})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d received a different Result instance", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly-once compute", s.Misses)
	}
	if s.Hits+s.Shared != goroutines-1 {
		t.Errorf("hits+shared = %d+%d, want %d", s.Hits, s.Shared, goroutines-1)
	}
}

// TestConcurrentDistinctRequests runs distinct cached requests from many
// goroutines on one generator: the pipelines run in parallel, lock-free,
// and race on nothing (run it under -race).
func TestConcurrentDistinctRequests(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	g.WithCache(cache.New(64))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.Generate(f.svc, f.mp, fmt.Sprintf("distinct-%d", i), Options{})
			if err != nil {
				t.Errorf("generate %d: %v", i, err)
				return
			}
			if res.Name != fmt.Sprintf("distinct-%d", i) {
				t.Errorf("generate %d produced %q", i, res.Name)
			}
		}(i)
	}
	wg.Wait()
	if s := g.Cache().Stats(); s.Misses != 8 {
		t.Errorf("misses = %d, want 8 distinct computations", s.Misses)
	}
}

// TestFirstFailureInExecutionOrder pins which error Step 7 reports when
// several atomic services fail: the first in execution order. fetch (first)
// has no path at all; deliver (second) fails discovery outright under a hard
// path limit. The no-path check for fetch must win over deliver's discovery
// error.
func TestFirstFailureInExecutionOrder(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Paths: pathdisc.Options{HardMaxPaths: 1}}
	// With fetch on its single t1->sw1 path, deliver's several srv->t1
	// paths overflow the limit: a discovery error, not a no-path one.
	mp := withPair(t, f.mp, "fetch", "t1", "sw1")
	var limit *pathdisc.LimitError
	if _, err := g.Generate(f.svc, mp, "limit", opts); !errors.As(err, &limit) ||
		!strings.Contains(err.Error(), `atomic service "deliver"`) {
		t.Fatalf("error = %v, want deliver's path-limit failure", err)
	}
	mp = withPair(t, mp, "fetch", "iso", "srv")
	_, err = g.Generate(f.svc, mp, "fail", opts)
	if err == nil {
		t.Fatal("disconnected pair did not fail")
	}
	if !strings.Contains(err.Error(), `atomic service "fetch"`) || !strings.Contains(err.Error(), "no path") {
		t.Errorf("error = %v, want the first pair's (fetch) no-path failure", err)
	}
}

func TestGenerateContextCancelled(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.GenerateContext(ctx, f.svc, f.mp, "cancelled", Options{}); err == nil {
		t.Error("generation under a cancelled context must fail")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	f := buildFixture(t)
	mp := withPair(t, f.mp, "fetch", "iso", "srv")
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16)
	g.WithCache(c)
	for i := 0; i < 2; i++ {
		if _, err := g.Generate(f.svc, mp, "broken", Options{}); err == nil {
			t.Fatalf("attempt %d: disconnected pair did not fail", i)
		}
	}
	s := c.Stats()
	if s.Misses != 2 || s.Entries != 0 {
		t.Errorf("stats = %s; errors must not be cached (want 2 misses, 0 entries)", s)
	}
	// The same generator still serves good requests afterwards.
	if _, err := g.Generate(f.svc, f.mp, "good", Options{}); err != nil {
		t.Fatal(err)
	}
}

// formattedKey is the fmt-formatted derivation appendKeyText replaced:
// the oracle that keeps every key, and so every genKey, unchanged.
func formattedKey(t *testing.T, g *Generator, svc *service.Composite, mp *mapping.Mapping, name string, opts Options) string {
	t.Helper()
	digest, err := modelDigest(g.model)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "model=%s\ndiagram=%s\nname=%s\n", digest, g.diagramName, name)
	fmt.Fprintf(h, "service=%s stages=%v\n", svc.Name(), svc.Stages())
	if err := mp.Encode(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "\nopts=recursive-dfs/%s paths={d=%d p=%d c=false k=%d cost=%s work=%d} disc=%t lint=%s legacy=false\n",
		opts.Merge,
		opts.Paths.MaxDepth, opts.Paths.MaxPaths,
		opts.Paths.K, opts.Paths.CostMetric, opts.Paths.MaxWork,
		opts.AllowDisconnected, opts.Lint)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCacheKeyMatchesFormatted holds CacheKey to the fmt-formatted
// derivation across option values, a staged service with a parallel
// stage, escaped mapping ids, names and an empty mapping.
func TestCacheKeyMatchesFormatted(t *testing.T) {
	f := buildFixture(t)
	staged, err := service.NewStaged(f.model, "staged <&>", [][]string{{"fetch"}, {"a", "b", "c"}, {"deliver"}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	odd := mapping.New()
	if err := odd.Add(mapping.Pair{AtomicService: "q\"'&<>\t\n", Requester: "é", Provider: "\xff"}); err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{},
		{Merge: MergeTraversed, AllowDisconnected: true, Lint: LintFail},
		{Paths: pathdisc.Options{MaxDepth: 7, MaxPaths: -3, K: 4, CostMetric: pathdisc.CostMetric(1), MaxWork: 1 << 40}},
		{Merge: MergeSemantics(9), Lint: LintMode(9), Paths: pathdisc.Options{CostMetric: pathdisc.CostMetric(9)}},
	}
	for _, svc := range []*service.Composite{f.svc, staged} {
		for _, mp := range []*mapping.Mapping{f.mp, odd, mapping.New()} {
			for _, name := range []string{"u", "", "ü %v"} {
				for _, o := range opts {
					got, err := g.CacheKey(svc, mp, name, o)
					if err != nil {
						t.Fatal(err)
					}
					if want := formattedKey(t, g, svc, mp, name, o); got != want {
						t.Errorf("CacheKey(%s, %d pairs, %q, %+v) = %s, formatted %s",
							svc.Name(), mp.Len(), name, o, got, want)
					}
				}
			}
		}
	}
}

// TestCacheKeyAllocs pins a warm CacheKey (model digest taken): the stage
// copy Composite.Stages returns (three objects for the fixture's two
// stages) and the key string. The fmt and encoding/xml derivation took 34.
func TestCacheKeyAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.CacheKey(f.svc, f.mp, "u", Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.CacheKey(f.svc, f.mp, "u", Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 4
	t.Logf("CacheKey: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("CacheKey allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
