package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
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
// reused generator — even one that ran uncached generations first —
// equals a fresh generator's.
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
			poolGenerate(t, g, "uncached")
		} else if _, _, err := g.Compiled().AllPaths("t1", "srv", pathdisc.Options{}); err != nil {
			t.Fatal(err)
		}
		g2, err := p.Acquire(ctx, xml, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		if g2 != g {
			t.Fatal("re-Acquire did not reuse the resident generator")
		}
		if g2.modelDigest != "" {
			t.Errorf("cache=%v: the model digest was taken without a CacheKey", c != nil)
		}
		svc, mp := printRequest(t, g2)
		if got, err := g2.CacheKey(svc, mp, "u", Options{}); err != nil || got != want {
			t.Errorf("cache=%v: reused generator's key = %s, %v; fresh generator's = %s", c != nil, got, err, want)
		}
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

	if got := p.IdleLen(xml, "infrastructure"); got != 0 {
		t.Fatalf("resident before the first Acquire = %d, want 0", got)
	}
	g1, err := p.Acquire(ctx, xml, "infrastructure")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	res1 := poolGenerate(t, g1, "print-upsim")
	if got := p.IdleLen(xml, "infrastructure"); got != 1 {
		t.Fatalf("resident after Acquire = %d, want 1", got)
	}

	g2, err := p.Acquire(ctx, xml, "infrastructure")
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if g2 != g1 {
		t.Fatal("re-Acquire of the same model did not reuse the resident generator")
	}
	// Same UPSIM name again: the first generation listed nothing in the
	// model, so the name is still free.
	res2 := poolGenerate(t, g2, "print-upsim")
	if res1.TotalPaths != res2.TotalPaths || res1.Name != res2.Name {
		t.Fatalf("reused generator produced a different result: %d vs %d paths", res1.TotalPaths, res2.TotalPaths)
	}
	if res1.UPSIM == nil || len(res1.UPSIM.Instances()) == 0 {
		t.Fatal("the first result lost its UPSIM diagram")
	}
	if _, ok := g2.Model().Diagram("print-upsim"); ok {
		t.Fatal("a pooled generation listed its diagram in the shared model")
	}
}

// TestPoolSharesOneGenerator: concurrent holders of one model get the same
// generator; there is one per resident model.
func TestPoolSharesOneGenerator(t *testing.T) {
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
	if g1 != g2 {
		t.Fatal("two Acquires of one model returned distinct generators")
	}
	if got := p.IdleLen(xml, "infrastructure"); got != 1 {
		t.Fatalf("resident = %d, want 1", got)
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
		if _, err := p.Acquire(ctx, xml, "infrastructure"); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.IdleLen(xmls[0], "infrastructure"); got != 0 {
		t.Fatalf("oldest model still resident (%d), want evicted", got)
	}
	for i := 1; i < 3; i++ {
		if got := p.IdleLen(xmls[i], "infrastructure"); got != 1 {
			t.Fatalf("model %d resident = %d, want 1", i, got)
		}
	}
}

// TestPoolConcurrentReuse is the batch-traffic race test. Goroutines
// acquire and generate across two models concurrently, so the shared
// generators and the pool's table run under the race detector. Then eight
// goroutines run distinct generations on the one pooled generator of a
// model: each result equals a fresh generator's, and a request whose
// requester dangles names the mapping <name>-1 every time.
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
				res, err := poolGenerateErr(g, fmt.Sprintf("upsim-w%d-%d", w, i), "t1")
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.TotalPaths == 0 {
					errc <- fmt.Errorf("worker %d: zero paths", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Distinct perspectives on one shared generator, against a fresh
	// generator per request.
	shared, err := p.Acquire(ctx, xmlA, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	requesters := []string{"t1", "sw1", "c1", "c2", "sw2", "t1", "sw1", "c1"}
	want := make([]*Result, goroutines)
	for w := range want {
		fresh, err := NewGenerator(buildFixture(t).model, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		fresh.WithCache(cache.New(4))
		if want[w], err = poolGenerateErr(fresh, fmt.Sprintf("perspective-%d", w), requesters[w]); err != nil {
			t.Fatal(err)
		}
	}
	const dangling = `importers: mapping "ghost-1": atomic service "fetch": requester "ghost" not found in diagram "models.net.diagrams.infrastructure"`
	errc = make(chan error, 2*goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := poolGenerateErr(shared, fmt.Sprintf("perspective-%d", w), requesters[w])
			if err != nil {
				errc <- fmt.Errorf("perspective %d: %w", w, err)
				return
			}
			if err := sameResult(res, want[w]); err != nil {
				errc <- fmt.Errorf("perspective %d: %w", w, err)
			}
			if _, err := poolGenerateErr(shared, "ghost", "ghost"); err == nil || err.Error() != dangling {
				errc <- fmt.Errorf("perspective %d: dangling requester: %v, want %s", w, err, dangling)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// sameResult compares what a response reads of a generation: node names,
// path strings per atomic service, and the content address.
func sameResult(got, want *Result) error {
	if !slices.Equal(got.NodeNames(), want.NodeNames()) {
		return fmt.Errorf("nodes %v, want %v", got.NodeNames(), want.NodeNames())
	}
	if got.Key != want.Key {
		return fmt.Errorf("key %s, want %s", got.Key, want.Key)
	}
	if len(got.Services) != len(want.Services) {
		return fmt.Errorf("%d services, want %d", len(got.Services), len(want.Services))
	}
	for i, sp := range got.Services {
		if g, w := pathStrings(sp.Paths), pathStrings(want.Services[i].Paths); !slices.Equal(g, w) {
			return fmt.Errorf("%s paths %v, want %v", sp.AtomicService, g, w)
		}
	}
	return nil
}

func pathStrings(paths []pathdisc.Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.String()
	}
	return out
}

// poolGenerateErr is poolGenerate for worker goroutines, which must not call
// t.Fatal, with the requester of fetch (and provider of deliver) as the
// perspective.
func poolGenerateErr(g *Generator, name, client string) (*Result, error) {
	act, ok := g.Model().Activity("print")
	if !ok {
		return nil, fmt.Errorf("model lost the print activity")
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		return nil, err
	}
	mp := mapping.New()
	if err := mp.Add(mapping.Pair{AtomicService: "fetch", Requester: client, Provider: "srv"}); err != nil {
		return nil, err
	}
	if err := mp.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: client}); err != nil {
		return nil, err
	}
	return g.Generate(svc, mp, name, Options{})
}
