// Command upsimd serves the UPSIM generation and analysis pipeline over
// HTTP (see internal/server for the API).
//
// Usage:
//
//	upsimd [-addr :8080] [-cache-size 128] [-warm-size 128] [-batch-workers 0]
//	       [-prewarm] [-pprof] [-drain 10s] [-log-level info] [-log-json]
//
// Caching:
//
// The generation-backed routes (generate, availability, qos, batch) share
// one content-addressed result cache of -cache-size entries (LRU); repeated
// identical requests skip the pipeline and concurrent identical requests
// compute once. Watch upsim_cache_*_total on GET /metrics. The warm
// byte-level lane (repeated analysis bodies replayed without JSON decode)
// holds its responses in a dedicated LRU of -warm-size entries; watch
// upsim_server_warm_{hits_total,entries,capacity}. With -prewarm (default
// on) a generator for the built-in case-study model is made resident in
// the pool at boot, so the first request against it skips model import and kernel
// compilation.
//
// Observability:
//
//	GET /metrics       Prometheus text exposition (always on)
//	GET /debug/vars    expvar JSON snapshot (always on)
//	GET /debug/pprof/  net/http/pprof profiles (only with -pprof)
//
// The daemon logs one structured line per request (log/slog) and shuts
// down gracefully on SIGINT/SIGTERM: the listener closes, in-flight
// requests get -drain to complete, then the process exits.
//
// Try it:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/api/v1/casestudy/model > usi.xml
//	curl localhost:8080/api/v1/casestudy/mapping > t1.xml
//	curl -s -X POST localhost:8080/api/v1/generate -d "$(jq -n \
//	    --rawfile m usi.xml --rawfile p t1.xml \
//	    '{modelXml:$m, diagram:"infrastructure", service:"printing", mappingXml:$p}')"
//	curl -s -X POST localhost:8080/api/v1/lint -d "$(jq -n \
//	    --rawfile m usi.xml --rawfile p t1.xml \
//	    '{modelXml:$m, diagram:"infrastructure", service:"printing", mappingXml:$p}')"
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"upsim/internal/obs"
	"upsim/internal/server"
)

// config carries the daemon flags; a struct so tests can drive run directly.
type config struct {
	addr         string
	cacheSize    int
	warmSize     int
	batchWorkers int
	prewarm      bool
	pprof        bool
	drain        time.Duration
	logLevel     string
	logJSON      bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.cacheSize, "cache-size", 0, "generation cache capacity in entries (0 = default 128)")
	flag.IntVar(&cfg.warmSize, "warm-size", 0, "warm-lane response cache capacity in entries (0 = default 128)")
	flag.IntVar(&cfg.batchWorkers, "batch-workers", 0, "worker pool bound for /api/v1/batch (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.prewarm, "prewarm", true, "make a ready case-study generator resident in the pool at boot")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "log JSON records instead of text")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "upsimd:", err)
		os.Exit(1)
	}
}

// setupLogger installs the flag-configured slog logger process-wide.
func setupLogger(cfg config) (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", cfg.logLevel, err)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if cfg.logJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	l := slog.New(h)
	obs.SetLogger(l)
	return l, nil
}

// run serves until ctx is cancelled, then drains gracefully. If ready is
// non-nil, the bound address is sent on it once the listener is up (tests
// pass ":0" and wait here).
func run(ctx context.Context, cfg config, ready chan<- string) error {
	log, err := setupLogger(cfg)
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/", server.LoggingMiddleware(server.NewWithConfig(server.Config{
		CacheSize:    cfg.cacheSize,
		WarmSize:     cfg.warmSize,
		BatchWorkers: cfg.batchWorkers,
		Prewarm:      cfg.prewarm,
	})))
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Info("upsimd listening", "addr", ln.Addr().String(), "pprof", cfg.pprof)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Info("shutting down, draining in-flight requests", "timeout", cfg.drain)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Error("drain timeout exceeded, closing", "err", err)
		_ = srv.Close()
		return err
	}
	// Serve has returned ErrServerClosed by now; a real error surfaced above.
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("shutdown complete")
	return nil
}
