package cache

import (
	"strings"
	"testing"
)

// TestRemove drops one entry by its exact key: a repeated or unmatched
// removal is a no-op that counts no invalidation.
func TestRemove(t *testing.T) {
	c := New(8)
	c.Add("a", 1)
	c.Add("b", 2)
	is := func(key string) func(string) bool { return func(k string) bool { return k == key } }
	if n := c.RemoveMatching(is("a")); n != 1 {
		t.Fatalf("RemoveMatching(a) = %d, want 1", n)
	}
	if n := c.RemoveMatching(is("a")); n != 0 {
		t.Fatalf("second RemoveMatching(a) = %d, want 0", n)
	}
	if n := c.RemoveMatching(is("never")); n != 0 {
		t.Fatalf("RemoveMatching(never) = %d, want 0", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a still cached after removal")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatal("unrelated entry b disturbed")
	}
	if got := c.Stats().Invalidations; got != 1 {
		t.Fatalf("Invalidations = %d, want 1", got)
	}
}

func TestRemoveMatching(t *testing.T) {
	c := New(16)
	keys := []string{
		"gen-aaa",
		"avail|gen-aaa|model=exact",
		"qos|gen-aaa|hops=2",
		"gen-bbb",
		"avail|gen-bbb|model=exact",
	}
	for _, k := range keys {
		c.Add(k, k)
	}
	removed := c.RemoveMatching(func(k string) bool { return strings.Contains(k, "gen-aaa") })
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	for _, k := range keys[:3] {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%q survived invalidation", k)
		}
	}
	for _, k := range keys[3:] {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("unaffected %q was evicted", k)
		}
	}
	if got := c.Stats().Invalidations; got != 3 {
		t.Fatalf("Invalidations = %d, want 3", got)
	}
	if got := c.RemoveMatching(func(string) bool { return false }); got != 0 {
		t.Fatalf("no-match removed %d", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestRemoveThenRecompute pins the interaction with Do: an invalidated key
// recomputes instead of hitting.
func TestRemoveThenRecompute(t *testing.T) {
	c := New(8)
	computes := 0
	compute := func() (any, error) { computes++; return computes, nil }
	ctx := t.Context()
	if _, out, _ := c.Do(ctx, "k", compute); out != OutcomeMiss {
		t.Fatalf("first Do outcome = %v", out)
	}
	if _, out, _ := c.Do(ctx, "k", compute); out != OutcomeHit {
		t.Fatalf("warm Do outcome = %v", out)
	}
	c.RemoveMatching(func(key string) bool { return key == "k" })
	v, out, _ := c.Do(ctx, "k", compute)
	if out != OutcomeMiss || v != 2 {
		t.Fatalf("post-invalidation Do = %v, %v; want recompute", v, out)
	}
}
