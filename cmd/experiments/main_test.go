package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment golden files")

// captureRun executes run(id) with stdout captured. It never writes a
// BENCH_<id>.json record: only main asks for one.
func captureRun(t *testing.T, id string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := run(id, false)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestFastExperiments runs every experiment except the slow scaling sweep
// and checks for the expected artefact markers.
func TestFastExperiments(t *testing.T) {
	wants := map[string][]string{
		"f6":          {"<<Component>>", "MTBF:Real"},
		"f7":          {"<<NetworkDevice>>", "Communication"},
		"f8":          {"C6500", "61320", "Comp", "3000"},
		"f9":          {"31 instances, 31 links", "printS:Server -- d4:C2960"},
		"f10":         {"stage 5: [Send documents]"},
		"t1":          {"Request printing", "printS"},
		"f3":          {"<servicemapping>", "round trip: 5 pairs"},
		"context":     {"metamodel.uml", "paths.ctx"},
		"paths":       {"t1—e1—d1—c1—d4—printS", "2 paths"},
		"f11":         {"matches paper node set: true"},
		"f12":         {"matches paper node set: true"},
		"avail":       {"t1 → p2", "0.99"},
		"rbd":         {"[parallel]", "RBD model materialised"},
		"importance":  {"single points of failure", "Fussell–Vesely"},
		"qos":         {"throughput", "responsiveness"},
		"dynamicity":  {"user mobility", "perceived-infrastructure diff"},
		"sensitivity": {"dA/dMTBF", "Comp"},
		"cloud":       {"fat-tree k=4", "valley-free"},
		"cache":       {"GOMAXPROCS=", "cached generate (median ±IQR): "},
	}
	for id, markers := range wants {
		id, markers := id, markers
		t.Run(id, func(t *testing.T) {
			out, err := captureRun(t, id)
			if err != nil {
				t.Fatalf("run(%s): %v", id, err)
			}
			for _, m := range markers {
				if !strings.Contains(out, m) {
					t.Errorf("experiment %s missing marker %q in:\n%s", id, m, out)
				}
			}
		})
	}
}

// TestImportanceGolden pins the full stdout of -exp importance: the cut-set
// count, the Esary–Proschan bounds, the Fussell–Vesely top 5 with its tie
// order (c2 before c1) and the what-if lines. The marker check above only
// sees that the sections exist; a change of kernel must leave every byte.
func TestImportanceGolden(t *testing.T) {
	out, err := captureRun(t, "importance")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "importance.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-exp importance output differs from %s:\n got:\n%s\nwant:\n%s", golden, out, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := captureRun(t, "nonsense"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestExperimentListComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experimentsList() {
		if e.id == "" || e.title == "" || (e.fn == nil) == (e.timed == nil) {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	if len(seen) != 25 {
		t.Errorf("experiments = %d, want 25", len(seen))
	}
}

// TestTimedSmoke runs every kernel-timing experiment but cache (which
// TestFastExperiments runs) in its CI shape, from an empty working
// directory. It guards each harness and the assertions it makes — the
// k-best hard-limit trip and work-budget probe, the warm and what-if
// status and patch checks — not the timings, and that -smoke writes no
// file.
func TestTimedSmoke(t *testing.T) {
	wants := map[string][]string{
		"pathdisc": {"mesh n=8", "ladder rungs=16"},
		"depend":   {"series a=2 w=4 t=3", "median ±IQR"},
		"whatif":   {"mesh n=8", "fat-tree k=4"},
		"warm":     {"/api/v1/availability", "/api/v1/explain"},
		"kbest":    {"tripped >1024", "kind=kbest"},
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	smoke = true
	defer func() {
		smoke = false
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	for _, e := range experimentsList() {
		if e.timed == nil || e.id == "cache" {
			continue
		}
		t.Run(e.id, func(t *testing.T) {
			markers, ok := wants[e.id]
			if !ok {
				t.Fatalf("no smoke markers for timed experiment %q", e.id)
			}
			out, err := captureRun(t, e.id)
			if err != nil {
				t.Fatalf("run(%s): %v", e.id, err)
			}
			for _, m := range append(markers, "GOMAXPROCS=") {
				if !strings.Contains(out, m) {
					t.Errorf("%s output missing %q in:\n%s", e.id, m, out)
				}
			}
			if strings.Contains(out, "wrote ") {
				t.Errorf("%s smoke run reports a written record:\n%s", e.id, out)
			}
		})
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Errorf("smoke run wrote %s", f.Name())
	}
}

// checkRecords reports a BENCH_*.json file in dir that no timed experiment
// produces, a timed experiment without its record in dir, and a record
// holding a ratio-to-baseline field: a speedup, floor, parity or
// regression key at any depth.
func checkRecords(dir string) error {
	want := map[string]bool{}
	for _, e := range experimentsList() {
		if e.timed != nil {
			want[recordName(e.id)] = true
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	var errs []error
	for _, f := range files {
		name := filepath.Base(f)
		if !want[name] {
			errs = append(errs, fmt.Errorf("%s: no timed experiment writes it", name))
			continue
		}
		delete(want, name)
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var rec any
		if err := json.Unmarshal(data, &rec); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		for _, key := range ratioKeys(rec) {
			errs = append(errs, fmt.Errorf("%s: ratio field %q", name, key))
		}
	}
	for name := range want {
		errs = append(errs, fmt.Errorf("%s: not committed", name))
	}
	return errors.Join(errs...)
}

// ratioKeys returns the object keys under v that name a speedup, floor,
// parity or regression.
func ratioKeys(v any) []string {
	var keys []string
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			lk := strings.ToLower(k)
			for _, bad := range []string{"speedup", "floor", "parity", "regression"} {
				if strings.Contains(lk, bad) {
					keys = append(keys, k)
					break
				}
			}
			keys = append(keys, ratioKeys(x)...)
		}
	case []any:
		for _, x := range v {
			keys = append(keys, ratioKeys(x)...)
		}
	}
	return keys
}

// TestBenchRecords holds the repository root's BENCH_*.json files to one
// record per timed experiment, absolute timings only, and checks that the
// check fails on a planted orphan and on a planted ratio field.
func TestBenchRecords(t *testing.T) {
	root := filepath.Join("..", "..")
	if err := checkRecords(root); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"BENCH_orphan.json": `{"workloads": []}`,
		"BENCH_warm.json":   `{"workloads": [{"route": "/x", "speedup": 2}]}`,
	} {
		dir := t.TempDir()
		files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkRecords(dir); err == nil {
			t.Errorf("planted %s: checkRecords passed", name)
		}
	}
}
