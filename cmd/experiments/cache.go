package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"upsim"
)

// benchOut is where expCache writes its machine-readable record; empty (the
// test default) skips the file. main sets it from -bench-out.
var benchOut string

// cacheBench is the BENCH_cache.json schema (all durations in nanoseconds;
// see EXPERIMENTS.md for recorded numbers).
type cacheBench struct {
	CaseStudy         string  `json:"caseStudy"`
	ColdReps          int     `json:"coldReps"`
	ColdNs            int64   `json:"coldNs"`
	WarmReps          int     `json:"warmReps"`
	WarmNs            int64   `json:"warmNs"`
	Speedup           float64 `json:"speedup"`
	Goroutines        int     `json:"goroutines"`
	SingleflightMiss  uint64  `json:"singleflightMisses"`
	SingleflightReuse uint64  `json:"singleflightReused"`
}

// expCache measures the generation cache on the USI case study: cold vs
// warm generation through the content-addressed cache, and singleflight
// deduplication under concurrent identical requests.
func expCache() error {
	mp := upsim.USITableIMapping()
	b := cacheBench{CaseStudy: "usi-printing (Table I, t1 → p2)", ColdReps: 10, WarmReps: 200, Goroutines: 16}

	// Cold: a fresh generator + cache per repetition, so every run pays the
	// full pipeline (Steps 6–8).
	var coldTotal time.Duration
	for i := 0; i < b.ColdReps; i++ {
		_, svc, gen, err := base()
		if err != nil {
			return err
		}
		gen.WithCache(upsim.NewCache(64))
		start := time.Now()
		if _, err := gen.Generate(svc, mp, "bench", upsim.Options{}); err != nil {
			return err
		}
		coldTotal += time.Since(start)
	}
	b.ColdNs = coldTotal.Nanoseconds() / int64(b.ColdReps)

	// Warm: one cached generator, repeated identical requests — the steady
	// state of a daemon serving a hot (model, service, mapping) tuple.
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	gen.WithCache(upsim.NewCache(64))
	if _, err := gen.Generate(svc, mp, "bench", upsim.Options{}); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < b.WarmReps; i++ {
		if _, err := gen.Generate(svc, mp, "bench", upsim.Options{}); err != nil {
			return err
		}
	}
	b.WarmNs = time.Since(start).Nanoseconds() / int64(b.WarmReps)
	b.Speedup = float64(b.ColdNs) / float64(b.WarmNs)

	// Singleflight: concurrent identical requests against a cold cache
	// compute exactly once.
	_, svc, gen, err = base()
	if err != nil {
		return err
	}
	c := upsim.NewCache(64)
	gen.WithCache(c)
	var wg sync.WaitGroup
	for i := 0; i < b.Goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = gen.Generate(svc, mp, "flight", upsim.Options{})
		}()
	}
	wg.Wait()
	s := c.Stats()
	b.SingleflightMiss = s.Misses
	b.SingleflightReuse = s.Hits + s.Shared

	fmt.Printf("  cold generate (pipeline):   %s   (mean of %d fresh runs)\n", time.Duration(b.ColdNs), b.ColdReps)
	fmt.Printf("  warm generate (cache hit):  %s   (mean of %d repeats)\n", time.Duration(b.WarmNs), b.WarmReps)
	fmt.Printf("  warm speedup: %.0fx\n", b.Speedup)
	fmt.Printf("  singleflight: %d goroutines, %d computed, %d reused\n",
		b.Goroutines, b.SingleflightMiss, b.SingleflightReuse)

	if benchOut != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", benchOut)
	}
	return nil
}
