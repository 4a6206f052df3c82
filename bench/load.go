package main

// The closed-loop load generator and the output checks. upsimd's callers
// (operator consoles, CI jobs, scripts) wait for each answer before asking
// again, so each of the two connections sends its next request only when
// the previous response has been read in full.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"upsim/internal/explain"
)

// connections is the closed loop's client count.
const connections = 2

// newClient returns a client holding exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// post sends one body and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// checker validates responses and remembers a digest per body id, so a
// repeated body must get a byte-identical response and the traced run can
// compare the in-process handler against what the daemon answered.
type checker struct {
	mu       sync.Mutex
	digests  map[string][sha256.Size]byte
	failures int
	first    string // first failure, for the report
}

func newChecker() *checker { return &checker{digests: map[string][sha256.Size]byte{}} }

// responseDigest hashes a response; a batch reply's trailing cache-stats
// snapshot depends on the process's cache history, not on the body, so it
// is left out.
func responseDigest(route string, body []byte) [sha256.Size]byte {
	if route == routeBatch {
		if i := bytes.LastIndex(body, []byte(`,"cache":{`)); i >= 0 {
			body = body[:i]
		}
	}
	return sha256.Sum256(body)
}

// check validates one response, returning false (and recording why) when
// it fails.
func (c *checker) check(req *request, status int, body []byte, err error) bool {
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err == nil {
		d := responseDigest(req.route, body)
		c.mu.Lock()
		prev, seen := c.digests[req.id]
		if !seen {
			c.digests[req.id] = d
		}
		c.mu.Unlock()
		switch {
		case seen && prev != d:
			err = fmt.Errorf("repeated body got a different response")
		case !seen:
			err = checkShape(req, body)
		}
	}
	if err == nil {
		return true
	}
	c.fail(fmt.Sprintf("%s %s: %v", req.route, req.id, err))
	return false
}

func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if c.first == "" {
		c.first = msg
	}
}

// digest returns the recorded response digest of a body id.
func (c *checker) digest(id string) ([sha256.Size]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.digests[id]
	return d, ok
}

// checkShape decodes a 200 response as its route's reply and checks the
// values every correct answer has.
func checkShape(req *request, body []byte) error {
	switch req.route {
	case routeAvailability:
		var r availabilityResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !(r.Exact > 0 && r.Exact <= 1) || !(r.MonteCarlo > 0 && r.MonteCarlo <= 1) || r.Components == 0 {
			return fmt.Errorf("implausible availability %+v", r)
		}
	case routeQoS:
		var r qosResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.ThroughputMbps <= 0 || r.PathsTotal == 0 || r.MaxHops == 0 {
			return fmt.Errorf("implausible qos %+v", r)
		}
	case routeExplain:
		var r explain.Report
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Services) == 0 || r.Attribution == nil || r.Stats.Count == 0 {
			return fmt.Errorf("explain report without services or attribution")
		}
	case routePaths:
		var r pathsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Paths) == 0 || (r.CostMetric != "" && len(r.Ranked) != len(r.Paths)) {
			return fmt.Errorf("paths reply with %d paths, %d ranked", len(r.Paths), len(r.Ranked))
		}
	case routeBatch:
		var r struct {
			Results []struct {
				Index  int             `json:"index"`
				Result json.RawMessage `json:"result"`
				Error  string          `json:"error"`
			} `json:"results"`
			Errors int `json:"errors"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Results) != req.items || r.Errors != 0 {
			return fmt.Errorf("batch reply with %d results, %d errors", len(r.Results), r.Errors)
		}
		for i, res := range r.Results {
			if res.Index != i || res.Error != "" || len(res.Result) == 0 {
				return fmt.Errorf("batch item %d: index %d, error %q", i, res.Index, res.Error)
			}
		}
		// Table I from client t1 through printS to p2 yields the Figure 11
		// UPSIM: 10 components, 10 links, 10 paths.
		for _, i := range req.tableI {
			var g generateResponse
			if err := json.Unmarshal(r.Results[i].Result, &g); err != nil {
				return err
			}
			if len(g.Nodes) != 10 || len(g.Links) != 10 || g.TotalPaths != 10 {
				return fmt.Errorf("Table I item: %d components, %d links, %d paths, want 10/10/10",
					len(g.Nodes), len(g.Links), g.TotalPaths)
			}
		}
	}
	return nil
}

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	latencies []time.Duration // every request started in the phase
	ok        int
	attempted int
	okByRoute map[string]int
	okItems   int // batch items in successful batch requests
	start     time.Time
	end       time.Time // when the last response of the phase was read
}

// runLoop drives the daemon at base from every client until the deadline;
// request indices come from next, so consecutive phases continue one
// sequence.
func runLoop(clients []*http.Client, base string, w *workload, next *atomic.Uint64, until time.Time, chk *checker) loopResult {
	res := loopResult{start: time.Now(), okByRoute: map[string]int{}}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var (
				buf     bytes.Buffer
				lats    []time.Duration
				ok      int
				byRoute = map[string]int{}
				items   int
			)
			for time.Now().Before(until) {
				req := w.next(next.Add(1) - 1)
				t0 := time.Now()
				status, err := post(c, base+req.route, req.body, &buf)
				lats = append(lats, time.Since(t0))
				if chk.check(&req, status, buf.Bytes(), err) {
					ok++
					byRoute[req.route]++
					items += req.items
				}
			}
			mu.Lock()
			res.latencies = append(res.latencies, lats...)
			res.ok += ok
			res.okItems += items
			for r, n := range byRoute {
				res.okByRoute[r] += n
			}
			res.attempted += len(lats)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.end = time.Now()
	return res
}

// prime serves the workload's priming bodies once, in order.
func prime(c *http.Client, base string, w *workload, chk *checker) (attempted, ok int) {
	var buf bytes.Buffer
	for i := range w.prime {
		req := &w.prime[i]
		status, err := post(c, base+req.route, req.body, &buf)
		attempted++
		if chk.check(req, status, buf.Bytes(), err) {
			ok++
		}
	}
	return attempted, ok
}

// drainIdle closes the clients' idle connections.
func drainIdle(clients []*http.Client) {
	for _, c := range clients {
		c.CloseIdleConnections()
	}
}
