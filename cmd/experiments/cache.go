package main

import (
	"fmt"

	"upsim"
)

// cacheRow is the BENCH_cache.json row: a generation answered by the
// content-addressed cache on the USI case study.
type cacheRow struct {
	CaseStudy      string `json:"caseStudy"`
	CachedGenerate timing `json:"cachedGenerate"`
}

// expCache times a cache hit: one cached generator answering repeated
// identical requests, the steady state of a daemon serving a hot (model,
// service, mapping) tuple. The hit is a SHA-256 over the canonical inputs
// plus an LRU lookup.
func expCache() (any, error) {
	mp := upsim.USITableIMapping()
	_, svc, gen, err := base()
	if err != nil {
		return nil, err
	}
	gen.WithCache(upsim.NewCache(64))
	generate := func() error {
		_, err := gen.Generate(svc, mp, "bench", upsim.Options{})
		return err
	}
	// The first request computes; measure calibrates on a hit.
	if err := generate(); err != nil {
		return nil, err
	}
	row := cacheRow{CaseStudy: "usi-printing (Table I, t1 → p2)"}
	if row.CachedGenerate, err = measure(generate); err != nil {
		return nil, err
	}
	fmt.Printf("  cached generate (median ±IQR): %v\n", row.CachedGenerate)
	return []cacheRow{row}, nil
}
