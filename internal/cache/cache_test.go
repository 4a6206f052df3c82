package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetAddLRU(t *testing.T) {
	c := New(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	// "a" is now most recently used, so adding "c" must evict "b".
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("new entry c missing")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.MaxEntries != 2 {
		t.Errorf("stats = %s; want 1 eviction, 2/2 entries", s)
	}
}

func TestAddReplaceDoesNotGrow(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	c.Add("a", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replacing a, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("Get(a) = %v, want replaced value 2", v)
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Errorf("replacement caused %d evictions", s.Evictions)
	}
}

func TestDefaultCapacity(t *testing.T) {
	for _, n := range []int{0, -5} {
		if got := New(n).Stats().MaxEntries; got != DefaultMaxEntries {
			t.Errorf("New(%d).MaxEntries = %d, want %d", n, got, DefaultMaxEntries)
		}
	}
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New(8)
	var computes atomic.Int64
	compute := func() (any, error) {
		computes.Add(1)
		return "value", nil
	}
	v, out, err := c.Do(context.Background(), "k", compute)
	if err != nil || v.(string) != "value" || out != OutcomeMiss {
		t.Fatalf("first Do = %v, %v, %v; want value, miss, nil", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", compute)
	if err != nil || v.(string) != "value" || out != OutcomeHit {
		t.Fatalf("second Do = %v, %v, %v; want value, hit, nil", v, out, err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(8)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed computation was cached")
	}
	v, out, err := c.Do(context.Background(), "k", func() (any, error) { calls++; return 42, nil })
	if err != nil || v.(int) != 42 || out != OutcomeMiss {
		t.Fatalf("retry Do = %v, %v, %v; want 42, miss, nil", v, out, err)
	}
	if calls != 2 {
		t.Errorf("compute calls = %d, want 2 (errors must not be cached)", calls)
	}
}

func TestDoSingleflightSharesOneCompute(t *testing.T) {
	c := New(8)
	const goroutines = 32
	var (
		computes atomic.Int64
		release  = make(chan struct{})
		started  = make(chan struct{})
		startOne sync.Once
	)
	compute := func() (any, error) {
		startOne.Do(func() { close(started) })
		computes.Add(1)
		<-release // hold every other goroutine in the shared-wait path
		return "shared", nil
	}
	var wg sync.WaitGroup
	results := make([]Outcome, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				v, out, err := c.Do(context.Background(), "k", compute)
				if err != nil || v.(string) != "shared" {
					t.Errorf("leader Do = %v, %v", v, err)
				}
				results[i] = out
				return
			}
			<-started // the leader holds the in-flight slot before we join
			v, out, err := c.Do(context.Background(), "k", compute)
			if err != nil || v.(string) != "shared" {
				t.Errorf("waiter Do = %v, %v", v, err)
			}
			results[i] = out
		}(i)
	}
	// Give the waiters time to pile onto the in-flight call, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under %d concurrent identical requests, want exactly 1", n, goroutines)
	}
	var miss, shared int
	for _, out := range results {
		switch out {
		case OutcomeMiss:
			miss++
		case OutcomeShared:
			shared++
		}
	}
	if miss != 1 {
		t.Errorf("misses = %d, want 1", miss)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Shared != uint64(shared) || s.Shared < 1 {
		t.Errorf("stats = %s; want 1 miss and %d shared", s, shared)
	}
}

func TestDoWaiterContextCancellation(t *testing.T) {
	c := New(8)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return "late", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (any, error) { return nil, errors.New("must not run") })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24) // more keys than capacity forces evictions
				v, _, err := c.Do(context.Background(), key, func() (any, error) { return key, nil })
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if v.(string) != key {
					t.Errorf("Do(%s) = %v (cross-key value leak)", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Errorf("Len = %d exceeds capacity 16", n)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Error("expected evictions when keys exceed capacity")
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{OutcomeMiss: "miss", OutcomeHit: "hit", OutcomeShared: "shared", Outcome(99): "Outcome(99)"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}
