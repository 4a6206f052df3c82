package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of a pipeline run. Spans form a tree: starting a
// span from a context that already carries one attaches the new span as a
// child. A Span is safe for concurrent use — concurrent children (e.g. the
// parallel path-discovery branches) may attach and annotate simultaneously.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one recorded span attribute.
type Attr struct {
	Key   string
	Value any
}

type spanKey struct{}

// StartSpan begins a span named name. If ctx already carries a span the new
// one is attached as its child; otherwise it is a root. The returned context
// carries the new span, so nested pipeline stages chain automatically. Call
// End when the stage finishes.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	if parent := FromContext(ctx); parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartStage begins a pipeline stage span: a child of the span ctx
// carries, exactly as StartSpan attaches it. Without a parent span it
// records nothing and allocates nothing — it returns ctx unchanged and a
// nil *Span, whose End and setters are no-ops — so a stage run outside a
// trace (every daemon request) pays no span. Roots come from StartSpan.
func StartStage(ctx context.Context, name string) (context.Context, *Span) {
	if FromContext(ctx) == nil {
		return ctx, nil
	}
	return StartSpan(ctx, name)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// End marks the span finished. The first call wins; later calls (and calls
// from deferred cleanup paths) are no-ops, as is End on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
}

// SetAttr records an attribute on the span; on a nil span it is a no-op.
// The conversion of value to any happens at the call site, before the nil
// check, and allocates for most ints and strings, so a stage that may run
// untraced records those through SetInt and SetString, which box only on a
// live span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt records an int attribute (as SetAttr with an int value).
func (s *Span) SetInt(key string, v int) {
	if s != nil {
		s.SetAttr(key, v)
	}
}

// SetString records a string attribute (as SetAttr with a string value).
func (s *Span) SetString(key, v string) {
	if s != nil {
		s.SetAttr(key, v)
	}
}

// Name returns the span name.
func (s *Span) Name() string { return s.name }

// Start returns the span start time.
func (s *Span) Start() time.Time { return s.start }

// EndTime returns the span end time (zero if the span has not ended).
func (s *Span) EndTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Duration returns end − start, or the running duration if the span has not
// ended yet.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the recorded attributes.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the child spans in attachment order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
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

// Render returns the span tree as an indented text diagram with per-stage
// durations and attributes — what `upsim -trace` prints:
//
//	generate                          5.1ms
//	├─ step6.import_mapping           0.2ms
//	├─ step7.pathdisc                 3.9ms
//	│  └─ Request printing            3.9ms  paths=2 edge_visits=22
//	└─ step8.merge                    0.8ms
func (s *Span) Render() string {
	type row struct {
		prefix string
		name   string
		span   *Span
	}
	var rows []row
	var build func(sp *Span, prefix, childPrefix string)
	build = func(sp *Span, prefix, childPrefix string) {
		rows = append(rows, row{prefix: prefix, name: sp.Name(), span: sp})
		kids := sp.Children()
		for i, c := range kids {
			connector, extend := "├─ ", "│  "
			if i == len(kids)-1 {
				connector, extend = "└─ ", "   "
			}
			build(c, childPrefix+connector, childPrefix+extend)
		}
	}
	build(s, "", "")
	width := 0
	for _, r := range rows {
		if n := len([]rune(r.prefix + r.name)); n > width {
			width = n
		}
	}
	var b strings.Builder
	for _, r := range rows {
		label := r.prefix + r.name
		pad := width - len([]rune(label))
		fmt.Fprintf(&b, "%s%s  %10s", label, strings.Repeat(" ", pad), formatDuration(r.span.Duration()))
		for _, a := range r.span.Attrs() {
			fmt.Fprintf(&b, "  %s=%v", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatDuration rounds a duration to a readable precision.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
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
