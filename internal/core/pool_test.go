package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"upsim/internal/cache"
	"upsim/internal/mapping"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/testutil"
	"upsim/internal/uml"
)

// fixtureXML serialises the diamond fixture for pool acquisition.
func fixtureXML(t *testing.T) string {
	t.Helper()
	f := buildFixture(t)
	var b strings.Builder
	if err := uml.Encode(&b, f.model); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b.String()
}

// printRequest builds the print service and its mapping against the
// generator's own model instance.
func printRequest(t testing.TB, g *Generator) (*service.Composite, *mapping.Mapping) {
	t.Helper()
	act, ok := g.Model().Activity("print")
	if !ok {
		t.Fatal("model lost the print activity")
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		t.Fatalf("FromActivity: %v", err)
	}
	mp := mapping.New()
	if err := mp.Add(mapping.Pair{AtomicService: "fetch", Requester: "t1", Provider: "srv"}); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: "t1"}); err != nil {
		t.Fatal(err)
	}
	return svc, mp
}

// poolGenerate runs one print-service generation on a pooled generator.
func poolGenerate(t testing.TB, g *Generator, name string) *Result {
	t.Helper()
	svc, mp := printRequest(t, g)
	res, err := g.Generate(svc, mp, name, Options{})
	if err != nil {
		t.Fatalf("Generate(%s): %v", name, err)
	}
	return res
}

// TestPoolLazyDigest: a pooled generator serving only path queries never
// encodes its model for the cache digest, and the first CacheKey of a
// reused generator — even one whose earlier uncached generations grafted
// diagrams onto the model — equals a fresh generator's.
func TestPoolLazyDigest(t *testing.T) {
	xml := fixtureXML(t)
	ctx := context.Background()
	fresh, err := NewGenerator(buildFixture(t).model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	svc, mp := printRequest(t, fresh)
	want, err := fresh.CacheKey(svc, mp, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*cache.Cache{cache.New(64), nil} {
		p := NewGeneratorPool(c, 2, 4)
		g, err := p.Acquire(ctx, xml, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			poolGenerate(t, g, "grafted")
		} else if _, _, err := g.Compiled().AllPaths("t1", "srv", pathdisc.Options{}); err != nil {
			t.Fatal(err)
		}
		p.Release(g)
		g2, err := p.Acquire(ctx, xml, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		if g2 != g {
			t.Fatal("re-Acquire did not reuse the idle generator")
		}
		if g2.modelDigest != "" {
			t.Errorf("cache=%v: the model digest was taken without a CacheKey", c != nil)
		}
		svc, mp := printRequest(t, g2)
		if got, err := g2.CacheKey(svc, mp, "u", Options{}); err != nil || got != want {
			t.Errorf("cache=%v: reused generator's key = %s, %v; fresh generator's = %s", c != nil, got, err, want)
		}
		p.Release(g2)
	}
}

// TestPoolKey: the pool key is SHA-256 over model XML, a zero byte and the
// diagram name, and hashing it allocates only the key string.
func TestPoolKey(t *testing.T) {
	xml := fixtureXML(t) + strings.Repeat(" ", 1000) // spans several hash chunks
	sum := sha256.Sum256([]byte(xml + "\x00infrastructure"))
	if got := poolKey(xml, "infrastructure"); got != string(sum[:]) {
		t.Errorf("poolKey = %x, want %x", got, sum)
	}
	if testutil.RaceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { poolKey(xml, "infrastructure") }); allocs > 1 {
		t.Errorf("poolKey: %.0f allocs, want ≤ 1", allocs)
	}
}

func TestPoolReuseSameModel(t *testing.T) {
	xml := fixtureXML(t)
	p := NewGeneratorPool(cache.New(64), 2, 4)
	ctx := context.Background()

	g1, err := p.Acquire(ctx, xml, "infrastructure")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	res1 := poolGenerate(t, g1, "print-upsim")
	p.Release(g1)
	if got := p.IdleLen(xml, "infrastructure"); got != 1 {
		t.Fatalf("idle after release = %d, want 1", got)
	}

	g2, err := p.Acquire(ctx, xml, "infrastructure")
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if g2 != g1 {
		t.Fatal("re-Acquire of the same model did not reuse the idle generator")
	}
	// Same UPSIM name again: ResetDerived must have unhooked the previous
	// output diagram, mapping and paths subtrees.
	res2 := poolGenerate(t, g2, "print-upsim")
	p.Release(g2)

	if res1.TotalPaths != res2.TotalPaths || res1.Name != res2.Name {
		t.Fatalf("reused generator produced a different result: %d vs %d paths", res1.TotalPaths, res2.TotalPaths)
	}
	// The first result must stay usable after the reset that detached it.
	if res1.UPSIM == nil || len(res1.UPSIM.Instances()) == 0 {
		t.Fatal("result from before ResetDerived lost its UPSIM diagram")
	}
	if _, ok := g2.Model().Diagram("print-upsim"); ok {
		t.Fatal("released generator still has the derived diagram attached")
	}
}

func TestPoolDistinctInstancesWhenBusy(t *testing.T) {
	xml := fixtureXML(t)
	p := NewGeneratorPool(cache.New(64), 2, 4)
	ctx := context.Background()
	g1, err := p.Acquire(ctx, xml, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.Acquire(ctx, xml, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Fatal("concurrent acquires shared one generator instance")
	}
	p.Release(g1)
	p.Release(g2)
	if got := p.IdleLen(xml, "infrastructure"); got != 2 {
		t.Fatalf("idle = %d, want 2", got)
	}
}

func TestPoolLRUEvictsWholeModels(t *testing.T) {
	p := NewGeneratorPool(cache.New(64), 2, 2)
	ctx := context.Background()
	base := fixtureXML(t)
	xmls := make([]string, 3)
	for i := range xmls {
		// Distinct pool lines: the pool keys on raw bytes, so trailing
		// whitespace runs of different lengths are three separate models.
		xmls[i] = base + strings.Repeat("\n", i)
	}
	for _, xml := range xmls {
		g, err := p.Acquire(ctx, xml, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		p.Release(g)
	}
	if got := p.IdleLen(xmls[0], "infrastructure"); got != 0 {
		t.Fatalf("oldest model retained %d idle generators, want 0 (evicted)", got)
	}
	for i := 1; i < 3; i++ {
		if got := p.IdleLen(xmls[i], "infrastructure"); got != 1 {
			t.Fatalf("model %d idle = %d, want 1", i, got)
		}
	}
}

// TestPoolConcurrentReuse is the batch-traffic race test: goroutines
// acquire, generate and release across two models concurrently, so reused
// model spaces and the pool's bookkeeping run under the race detector.
func TestPoolConcurrentReuse(t *testing.T) {
	xmlA := fixtureXML(t)
	xmlB := xmlA + "\n" // distinct pool line, same semantics
	p := NewGeneratorPool(cache.New(256), 2, 4)
	ctx := context.Background()

	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				xml := xmlA
				if (w+i)%2 == 1 {
					xml = xmlB
				}
				g, err := p.Acquire(ctx, xml, "infrastructure")
				if err != nil {
					errc <- fmt.Errorf("worker %d: Acquire: %w", w, err)
					return
				}
				res, err := poolGenerateErr(g, fmt.Sprintf("upsim-w%d-%d", w, i))
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.TotalPaths == 0 {
					errc <- fmt.Errorf("worker %d: zero paths", w)
					return
				}
				p.Release(g)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// poolGenerateErr is poolGenerate for worker goroutines, which must not call
// t.Fatal.
func poolGenerateErr(g *Generator, name string) (*Result, error) {
	act, ok := g.Model().Activity("print")
	if !ok {
		return nil, fmt.Errorf("model lost the print activity")
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		return nil, err
	}
	mp := mapping.New()
	if err := mp.Add(mapping.Pair{AtomicService: "fetch", Requester: "t1", Provider: "srv"}); err != nil {
		return nil, err
	}
	if err := mp.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: "t1"}); err != nil {
		return nil, err
	}
	return g.Generate(svc, mp, name, Options{})
}
