package server

// This file implements the warm request lane for the analysis routes
// (availability, qos, explain): a byte-level fast path that serves a repeated
// POST body without JSON decoding, generator work or response encoding — and,
// once warm, without heap allocation (DESIGN.md §14).
//
// The key insight is that those routes are pure functions of their request
// bytes: the model, service, mapping and every analysis knob travel in the
// body, and the server holds no state that could change the answer (the
// what-if engine owns its own route and cache keys). So `sha256(body)` is a
// sound cache key — a warm entry can never go stale, and no invalidation
// machinery is needed. The stored value is the same *encodedResponse the
// analysis cache holds, so a warm hit writes the memoised bytes straight to
// the wire.
//
// Lifecycle: the instrumentWarm middleware takes a pooled warmReq, reads the
// body into its reusable buffer and probes the cache via GetBytes (the
// map[string(bytes)] no-conversion lookup). On a hit it replays the response
// and returns the warmReq to the pool. On a miss the warmReq becomes the
// request body (it replays the consumed bytes to the JSON decoder) and rides
// along to the handler, which calls storeWarm after a successful compute;
// the middleware reclaims the warmReq when the handler returns.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"sync"

	"upsim/internal/obs"
)

// mWarmHits counts analysis responses replayed by the warm byte-level lane,
// by route. upsim_cache_hits_total counts each of these too, next to the
// generation-cache hits of requests that still paid JSON decode and
// generator acquisition.
var mWarmHits = obs.NewCounter("upsim_server_warm_hits_total",
	"Analysis responses served by the warm byte-level lane (no JSON decode, no generation).", "route")

// Warm-lane cache sizing gauges: the configured capacity and the current
// entry count of the dedicated warm response cache (Config.WarmSize /
// upsimd -warm-size). The lane used to share the generation cache; the
// gauges make the split observable on GET /metrics.
var (
	mWarmCapacity = obs.NewGauge("upsim_server_warm_capacity",
		"Configured capacity (entries) of the dedicated warm-lane response cache.")
	mWarmEntries = obs.NewGauge("upsim_server_warm_entries",
		"Entries currently held by the dedicated warm-lane response cache.")
)

// jsonContentType is the shared Content-Type value written by the warm lane
// (direct map assignment; Header().Set would allocate the slice per hit).
var jsonContentType = []string{"application/json"}

// warmKeyPrefixes are the per-route key namespaces. They share the "warm|"
// prefix so RemoveMatching predicates can target the whole lane at once.
const (
	warmPrefixAvailability = "warm|avail|"
	warmPrefixQoS          = "warm|qos|"
	warmPrefixExplain      = "warm|explain|"
	// warmPrefixBatch keys whole POST /api/v1/batch bodies: a repeated
	// identical batch replays the memoised response without decoding or
	// fanning out. (The memoised body embeds the cache-stats snapshot taken
	// when it was computed; a warm replay intentionally repeats it.)
	warmPrefixBatch = "warm|batch|"
	// warmPrefixItem keys individual batch items by a hash of their fields
	// (itemWarmKey), so a repeated item skips generation and analysis even
	// when the surrounding batch differs (see runBatchItem).
	warmPrefixItem = "warm|item|"
)

// warmReq is the pooled per-request state of the body buffer: the body
// bytes, the warm-lane cache key, the replay reader handed to the JSON
// decoder on a miss and the request-body scanner. It implements
// io.ReadCloser so it can be installed as r.Body. Every JSON POST route
// reads its body through one (see serve); only the warm routes key it.
type warmReq struct {
	buf  []byte       // request body bytes, reused across requests
	err  error        // why fill stopped early, or nil
	key  []byte       // prefix + hex digest, reused across requests
	body bytes.Reader // replays buf to the handler on a miss
	sc   scanner      // decodes buf on the scanned routes
}

// Read replays the body, then the error that cut its read short, if any.
func (wr *warmReq) Read(p []byte) (int, error) {
	n, err := wr.body.Read(p)
	if err == io.EOF && wr.err != nil {
		err = wr.err
	}
	return n, err
}

func (wr *warmReq) Close() error { return nil }

var warmPool = sync.Pool{New: func() any { return new(warmReq) }}

// maxPooledBody bounds the body buffer and unescape scratch a recycled
// warmReq keeps: a rare large body must not stay pinned in the pool.
const maxPooledBody = 1 << 20

// recycle returns wr to warmPool.
func (wr *warmReq) recycle() {
	wr.shrink()
	warmPool.Put(wr)
}

// shrink drops the buffers grown past maxPooledBody.
func (wr *warmReq) shrink() {
	if cap(wr.buf) > maxPooledBody {
		wr.buf = nil
	}
	if cap(wr.sc.scratch) > maxPooledBody {
		wr.sc.scratch = nil
	}
}

// fill reads the request body into the reusable buffer, up to one byte past
// the request size bound (the overflow byte lets the replayed decode fail
// with the same "body too large" error the cold path produces). size is the
// request's Content-Length, or -1 when unknown: a known length sizes the
// buffer in one allocation instead of doubling it up from 4 KB, which a
// large batch body would otherwise repeat every time the pool drops its
// warmReq. The header is the client's claim, not bytes received, so the
// presize stops at maxPooledBody; a longer body doubles past it as its
// bytes arrive. It clears the previous request's key; the returned error is
// also kept in wr.err.
//
//upsim:hotpath
func (wr *warmReq) fill(r io.Reader, size int64) error {
	wr.key = wr.key[:0]
	buf := wr.buf[:0]
	if want := max(int(min(size, maxPooledBody))+1, 4096); cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), MaxRequestBytes+1)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > MaxRequestBytes:
			err = errBodyTooLarge
		case err == io.EOF:
			err = nil
		case err == nil:
			continue
		}
		wr.buf, wr.err = buf, err
		return err
	}
}

// errBodyTooLarge aborts fill when the body exceeds MaxRequestBytes; the
// decode falls back to decodeBody, whose MaxBytesReader produces the
// canonical 400 from the replayed bytes.
var errBodyTooLarge = errors.New("server: request body exceeds MaxRequestBytes")

// buildKey derives the warm cache key — prefix plus the hex SHA-256 of the
// body bytes — into the reusable key buffer.
//
//upsim:hotpath
func (wr *warmReq) buildKey(prefix string) {
	sum := sha256.Sum256(wr.buf)
	need := len(prefix) + hex.EncodedLen(len(sum))
	if cap(wr.key) < need {
		wr.key = make([]byte, 0, 128)
	}
	key := append(wr.key[:0], prefix...)[:need]
	hex.Encode(key[len(prefix):], sum[:])
	wr.key = key
}

// replay arms the warmReq as the request body so the cold handler decodes the
// already-consumed bytes.
func (wr *warmReq) replay(r *http.Request) {
	wr.body.Reset(wr.buf)
	r.Body = wr
}

// writeWarm replays a memoised analysis response: shared Content-Type value,
// request-ID echo by header-slice reuse (no per-hit entropy draw — a warm hit
// without a client-supplied ID simply carries none), memoised body bytes.
//
//upsim:hotpath
func writeWarm(w http.ResponseWriter, r *http.Request, resp *encodedResponse) {
	h := w.Header()
	if ids := r.Header[RequestIDHeader]; len(ids) > 0 {
		h[RequestIDHeader] = ids
	}
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp.body)
}

// tryWarm probes the warm lane for the request. It returns true when the
// response was served (warm hit); on false the request body has been armed
// for replay and the caller must run the cold path. The returned warmReq is
// owned by the caller either way (return it to warmPool when done).
//
//upsim:hotpath
func (a *api) tryWarm(wr *warmReq, prefix string, w http.ResponseWriter, r *http.Request) bool {
	if err := wr.fill(r.Body, r.ContentLength); err != nil {
		wr.replay(r)
		return false
	}
	wr.buildKey(prefix)
	if v, ok := a.warm.GetBytes(wr.key); ok {
		if resp, ok := v.(*encodedResponse); ok {
			writeWarm(w, r, resp)
			return true
		}
	}
	wr.replay(r)
	return false
}

// storeWarm publishes a successful analysis response under the request's warm
// key. It is a no-op when the request did not travel through the warm lane
// (batch fan-out, direct RunBatch callers).
func (a *api) storeWarm(r *http.Request, resp *encodedResponse) {
	if wr, ok := r.Body.(*warmReq); ok && len(wr.key) > 0 {
		a.warm.Add(string(wr.key), resp)
		mWarmEntries.With().Set(int64(a.warm.Len()))
	}
}
