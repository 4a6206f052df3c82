package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// soloFixture returns the case-study model XML with, next to the printing
// activity, an activity "solo" of one action — a model that loads but whose
// solo activity is no composite service — and the error text
// service.FromActivity gives for it.
func soloFixture(t *testing.T) (modelXML, soloErr string) {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		t.Fatal(err)
	}
	act, err := m.NewActivity("solo")
	if err != nil {
		t.Fatal(err)
	}
	n, err := act.AddAction("ping")
	if err != nil {
		t.Fatal(err)
	}
	if err := act.Flow(act.Initial(), n); err != nil {
		t.Fatal(err)
	}
	if err := act.Flow(n, act.AddFinal()); err != nil {
		t.Fatal(err)
	}
	_, ferr := service.FromActivity(act)
	if ferr == nil {
		t.Fatal("a one-action activity wraps as a composite service")
	}
	var b strings.Builder
	if err := uml.Encode(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.String(), ferr.Error()
}

// TestCompositeErrorContract pins the generate route's activity handling on
// the generator's per-activity composite: a model whose invalid activity no
// request names serves every other request, and a request naming the
// invalid or a missing activity fails with the FromActivity or "no
// activity" text on every call, before and after a valid call kept its
// composite.
func TestCompositeErrorContract(t *testing.T) {
	modelXML, soloErr := soloFixture(t)
	_, mappingXML := warmFixture(t)
	h := New()
	post := func(svc string) (int, string) {
		body := mustJSON(t, obj{"modelXml": modelXML, "diagram": casestudy.DiagramName,
			"service": svc, "mappingXml": mappingXML})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/generate", strings.NewReader(body)))
		return w.Code, w.Body.String()
	}
	if code, body := post(casestudy.PrintingServiceName); code != http.StatusOK {
		t.Fatalf("printing on a model with an unnamed invalid activity: %d %s", code, body)
	}
	wantErr := map[string]string{
		"solo":  soloErr,
		"ghost": `model has no activity "ghost"`,
	}
	for round := 0; round < 2; round++ {
		for svc, text := range wantErr {
			code, body := post(svc)
			if want := mustJSON(t, obj{"error": text}); code != http.StatusBadRequest || strings.TrimSpace(body) != want {
				t.Errorf("round %d, %s: %d %s, want 400 %s", round, svc, code, body, want)
			}
		}
		if code, body := post(casestudy.PrintingServiceName); code != http.StatusOK {
			t.Fatalf("round %d, printing: %d %s", round, code, body)
		}
	}
}

// TestCompositeConcurrent asks one pooled generator for a valid, an
// invalid and a missing activity from many goroutines (run it under -race):
// every valid call gets the one kept *service.Composite, and every failing
// call the error text the route answered before composites were kept.
func TestCompositeConcurrent(t *testing.T) {
	modelXML, soloErr := soloFixture(t)
	a := newAPI(Config{})
	gen, err := a.generators.Acquire(context.Background(), modelXML, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	// want maps each activity name to its error text ("" for the valid
	// one); each goroutine starts at a different name, so first uses race.
	names := []string{casestudy.PrintingServiceName, "solo", "ghost"}
	want := map[string]string{"solo": soloErr, "ghost": `model has no activity "ghost"`}
	const workers, calls = 8, 50
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[*service.Composite]bool{}
		errs []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				name := names[(w+i)%len(names)]
				svc, err := gen.Composite(name)
				mu.Lock()
				switch text := want[name]; {
				case text == "" && (err != nil || svc == nil):
					errs = append(errs, fmt.Sprintf("%s: %v", name, err))
				case text == "":
					seen[svc] = true
				case svc != nil || err == nil || err.Error() != text:
					errs = append(errs, fmt.Sprintf("%s: %v, %v; want %q", name, svc, err, text))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	if len(seen) != 1 {
		t.Errorf("%d distinct printing composites, want 1", len(seen))
	}
}
