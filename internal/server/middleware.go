package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"upsim/internal/obs"
)

// HTTP-layer metrics. The path label is the route pattern, never the raw
// URL, so cardinality stays bounded.
var (
	mRequests = obs.NewCounter("upsim_http_requests_total",
		"HTTP requests served, by method, route and status code.",
		"method", "path", "status")
	mLatency = obs.NewHistogram("upsim_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.",
		obs.LatencyBuckets, "path")
	mInFlight = obs.NewGauge("upsim_http_in_flight",
		"HTTP requests currently being served.")
	mPanics = obs.NewCounter("upsim_http_panics_total",
		"Handler panics recovered by the middleware, by route.", "path")
)

// requestIDKey carries the per-request ID through the context.
type requestIDKey struct{}

// RequestIDHeader is the header the middleware reads an incoming request ID
// from and echoes the effective ID back on.
const RequestIDHeader = "X-Request-Id"

// RequestID returns the request ID injected by the middleware, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns a 16-hex-digit random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not actionable here; a constant ID still
		// lets the request proceed.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the status code and response size for metrics and
// request logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrumentWarm wraps an analysis route with the warm byte-level lane in
// front of the full middleware stack: a repeated request body is answered
// from memoised response bytes before any context, status-writer or
// request-ID allocation happens. The metric children (request counter with
// the fixed POST/200 labels, latency histogram) are resolved once at wrap
// time, so a warm hit performs zero allocations end to end — the contract
// the warm_test.go AllocsPerRun guards pin. Warm misses replay the consumed
// body through the regular instrumented cold path. The in-flight gauge
// deliberately covers only cold requests: a warm hit is sub-microsecond and
// never in flight long enough to observe.
func (a *api) instrumentWarm(route, warmPrefix string, h http.HandlerFunc) http.HandlerFunc {
	warmRequests := mRequests.With(http.MethodPost, route, "200")
	warmLatency := mLatency.With(route)
	warmHits := mWarmHits.With(route)
	cold := instrument(route, h)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		wr := warmPool.Get().(*warmReq)
		if a.tryWarm(wr, warmPrefix, w, r) {
			wr.recycle()
			warmHits.Inc()
			warmRequests.Inc()
			warmLatency.Observe(time.Since(start).Seconds())
			return
		}
		cold(w, r)
		// The handler is done with the replayed body (storeWarm copied the
		// key); the warmReq can be recycled.
		wr.recycle()
	}
}

// instrument wraps one route's handler with the observability middleware:
// request-ID injection, in-flight gauge, per-route request counter and
// latency histogram, and panic recovery that logs the stack and returns a
// JSON 500 instead of killing the connection.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		sw := &statusWriter{ResponseWriter: w}
		mInFlight.With().Inc()
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			if rec := recover(); rec != nil {
				mPanics.With(route).Inc()
				obs.Logger().Error("handler panic",
					"route", route,
					"method", r.Method,
					"request_id", id,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()))
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal server error (request %s)", id)
				}
			}
			mInFlight.With().Dec()
			mRequests.With(r.Method, route, fmt.Sprint(sw.status)).Inc()
			mLatency.With(route).Observe(elapsed.Seconds())
		}()
		h(sw, r)
	}
}

// LoggingMiddleware logs one structured line per request through the
// process-wide obs logger. cmd/upsimd wraps the API handler with it; tests
// and embedders that want quiet handlers simply don't.
func LoggingMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
		}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		obs.Logger().Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"bytes", sw.bytes,
			"duration", time.Since(start),
			"request_id", sw.Header().Get(RequestIDHeader),
			"remote", r.RemoteAddr)
	})
}
