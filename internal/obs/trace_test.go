package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"upsim/internal/testutil"
)

func TestSpanTreeBasics(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "generate")
	ctx6, s6 := StartSpan(ctx, "step6.import_mapping")
	_ = ctx6
	s6.End()
	ctx7, s7 := StartSpan(ctx, "step7.pathdisc")
	_, leaf := StartSpan(ctx7, "Request printing")
	leaf.SetAttr("paths", 2)
	leaf.End()
	s7.End()
	root.End()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root children = %d, want 2", got)
	}
	if root.Children()[1].Children()[0].Name() != "Request printing" {
		t.Errorf("grandchild = %q", root.Children()[1].Children()[0].Name())
	}
	if err := root.WellFormed(); err != nil {
		t.Error(err)
	}
	if attrs := leaf.Attrs(); len(attrs) != 1 || attrs[0].Key != "paths" || attrs[0].Value != 2 {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestSpanWithoutParentIsRoot(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carries a span")
	}
	ctx, sp := StartSpan(context.Background(), "solo")
	sp.End()
	if FromContext(ctx) != sp {
		t.Error("context does not carry the span")
	}
	if err := sp.WellFormed(); err != nil {
		t.Error(err)
	}
}

// TestStartStageWithoutParent: outside a trace a stage is a nil span and
// the caller's context, and opening, annotating and ending it allocates
// nothing — an int above the runtime's small-value cache and a string
// built at run time included.
func TestStartStageWithoutParent(t *testing.T) {
	bg := context.Background()
	ctx := context.WithValue(bg, spanKey{}, (*Span)(nil)) // a nil span is no parent either
	for _, c := range []context.Context{bg, ctx} {
		sctx, sp := StartStage(c, "step8.merge")
		if sp != nil || sctx != c {
			t.Fatalf("StartStage without a parent = (%v, %v), want (%v, nil)", sctx, sp, c)
		}
	}
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	n, word := 4096, strings.Repeat("x", 3)
	var boxed any = n
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartStage(ctx, "step7.pathdisc")
		sp.SetInt("paths", n)
		sp.SetString("outcome", word)
		sp.SetAttr("fresh", n > 0)
		sp.SetAttr("boxed", boxed)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("an untraced stage allocates %.1f objects, want 0", allocs)
	}
}

// TestStartStageUnderParent: under a root, StartStage builds the tree
// StartSpan builds — the same names in the same child order, the same
// attributes — and the tree is well-formed.
func TestStartStageUnderParent(t *testing.T) {
	build := func(start func(context.Context, string) (context.Context, *Span)) *Span {
		ctx, root := StartSpan(context.Background(), "generate")
		_, s6 := start(ctx, "step6.import_mapping")
		s6.SetInt("pairs", 3)
		s6.End()
		ctx7, s7 := start(ctx, "step7.pathdisc")
		for _, svc := range []string{"request", "reply"} {
			_, leaf := start(ctx7, svc)
			leaf.SetInt("edge_visits", 1000)
			leaf.End()
		}
		s7.SetString("key", "0123456789ab")
		s7.SetAttr("fresh", true)
		s7.End()
		root.End()
		return root
	}
	shape := func(root *Span) string {
		var b strings.Builder
		root.Walk(func(sp *Span, depth int) {
			fmt.Fprintf(&b, "%d %s %v\n", depth, sp.Name(), sp.Attrs())
		})
		return b.String()
	}
	want, got := build(StartSpan), build(StartStage)
	if err := got.WellFormed(); err != nil {
		t.Error(err)
	}
	if shape(got) != shape(want) {
		t.Errorf("StartStage tree\n%s\nStartSpan tree\n%s", shape(got), shape(want))
	}
	if n := len(got.Children()); n != 2 || len(got.Children()[1].Children()) != 2 {
		t.Errorf("StartStage tree has the wrong fan-out:\n%s", got.Render())
	}
}

func TestEndIdempotent(t *testing.T) {
	_, sp := StartSpan(context.Background(), "once")
	sp.End()
	end := sp.EndTime()
	time.Sleep(time.Millisecond)
	sp.End()
	if !sp.EndTime().Equal(end) {
		t.Error("second End moved the end time")
	}
}

func TestRender(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "generate")
	_, child := StartSpan(ctx, "step7.pathdisc")
	child.SetAttr("paths", 2)
	child.End()
	root.End()
	out := root.Render()
	if !strings.Contains(out, "generate") || !strings.Contains(out, "└─ step7.pathdisc") {
		t.Errorf("render = %q", out)
	}
	if !strings.Contains(out, "paths=2") {
		t.Errorf("render misses attrs: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("render has %d lines, want 2: %q", lines, out)
	}
}

// TestSpanTreePropertyConcurrent is the satellite property test: under
// concurrent child creation and annotation, the finished tree is
// well-formed — every child interval nests within its parent and no
// duration is negative. Run with -race.
func TestSpanTreePropertyConcurrent(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		fanout := 2 + rng.Intn(6)
		depth := 1 + rng.Intn(3)

		ctx, root := StartSpan(context.Background(), "root")
		var grow func(ctx context.Context, level int, wg *sync.WaitGroup)
		grow = func(ctx context.Context, level int, wg *sync.WaitGroup) {
			defer wg.Done()
			if level >= depth {
				return
			}
			var inner sync.WaitGroup
			for i := 0; i < fanout; i++ {
				inner.Add(1)
				go func(i int) {
					cctx, sp := StartSpan(ctx, fmt.Sprintf("L%d.%d", level, i))
					sp.SetAttr("level", level)
					var deeper sync.WaitGroup
					deeper.Add(1)
					grow(cctx, level+1, &deeper)
					deeper.Wait()
					sp.End() // children finished first: intervals nest
					inner.Done()
				}(i)
			}
			inner.Wait()
		}
		var wg sync.WaitGroup
		wg.Add(1)
		grow(ctx, 0, &wg)
		wg.Wait()
		root.End()

		if err := root.WellFormed(); err != nil {
			t.Fatalf("trial %d (fanout %d depth %d): %v", trial, fanout, depth, err)
		}
		spans := 0
		root.Walk(func(*Span, int) { spans++ })
		want := 1
		perLevel := 1
		for l := 0; l < depth; l++ {
			perLevel *= fanout
			want += perLevel
		}
		if spans != want {
			t.Fatalf("trial %d: %d spans, want %d", trial, spans, want)
		}
	}
}

func TestWellFormedDetectsUnended(t *testing.T) {
	_, sp := StartSpan(context.Background(), "open")
	if err := sp.WellFormed(); err == nil {
		t.Error("unended span reported well-formed")
	}
}

// WellFormed checks the structural invariants of a finished span tree:
// every span has ended, durations are non-negative, and every child
// interval nests within its parent's. It returns nil when the tree is
// well-formed; tests use it as the property under concurrent span creation.
func (s *Span) WellFormed() error {
	var errs []string
	s.Walk(func(sp *Span, _ int) {
		end := sp.EndTime()
		if end.IsZero() {
			errs = append(errs, fmt.Sprintf("span %q not ended", sp.Name()))
			return
		}
		if end.Before(sp.Start()) {
			errs = append(errs, fmt.Sprintf("span %q has negative duration", sp.Name()))
		}
		for _, c := range sp.Children() {
			cend := c.EndTime()
			if c.Start().Before(sp.Start()) {
				errs = append(errs, fmt.Sprintf("child %q starts before parent %q", c.Name(), sp.Name()))
			}
			if !cend.IsZero() && cend.After(end) {
				errs = append(errs, fmt.Sprintf("child %q ends after parent %q", c.Name(), sp.Name()))
			}
		}
	})
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("span tree malformed: %s", strings.Join(errs, "; "))
}

// Walk visits the span and every descendant depth-first, passing the
// nesting depth (0 for s itself).
func (s *Span) Walk(visit func(sp *Span, depth int)) {
	s.walk(visit, 0)
}

func (s *Span) walk(visit func(sp *Span, depth int), depth int) {
	visit(s, depth)
	for _, c := range s.Children() {
		c.walk(visit, depth+1)
	}
}
