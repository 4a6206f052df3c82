package main

// The request corpora. Every workload is a pure function of the seed: request
// i is derived from its own PCG stream (seed, i), so the measured run, the
// traced replay and the generator test all see the same bodies no matter how
// many connections pull from the sequence. The daemon receives only these
// generated bodies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"upsim/internal/casestudy"
	"upsim/internal/mapping"
	"upsim/internal/modelgen"
	"upsim/internal/server"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// Routes the workloads drive.
const (
	routeAvailability = "/api/v1/availability"
	routeQoS          = "/api/v1/qos"
	routeExplain      = "/api/v1/explain"
	routePaths        = "/api/v1/paths"
	routeBatch        = "/api/v1/batch"
)

// mcSamples is the Monte Carlo sample count of every availability body.
const mcSamples = 20000

// batchSize and batchHot shape the batch workload: 16 items per body, half
// of them drawn from a hot set of 32 items.
const (
	batchSize = 16
	batchHot  = 32
)

// Stream offsets keep priming and hot-set draws out of the request index
// space.
const (
	primeStream = 1 << 62
	hotStream   = 1<<62 + 1<<40
)

// fixedSeed seeds the priming and hot-set draws, so a priming pass does the
// same work on every seed: its cost is part of setup_s, which is compared
// across runs of different seeds.
const fixedSeed = 0

// request is one generated POST.
type request struct {
	route string
	// id names the body: equal ids carry byte-identical bodies.
	id   string
	body []byte
	// items is the item count of a batch body (0 otherwise).
	items int
	// tableI lists the batch item indices holding the Table I generate item.
	tableI []int
}

// workload is one traffic mix.
type workload struct {
	name string
	// prime is served once, in order, before the warm-up.
	prime []request
	// next derives request i of the sequence.
	next func(i uint64) request
	// distinct is the number of distinct bodies the sequence can produce
	// (0 when every request is new).
	distinct int
}

var workloadNames = []string{"replay", "analyze", "churn", "batch"}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "replay":
		return replayWorkload(seed)
	case "analyze":
		return analyzeWorkload(seed)
	case "churn":
		return churnWorkload(seed)
	case "batch":
		return batchWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func rngFor(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// jsonString returns s as an escaped JSON string literal.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // marshalling a string cannot fail
	return b
}

var emptyModelField = []byte(`"modelXml":""`)

// withModel marshals v, whose modelXml field is empty, and splices the
// pre-escaped model literal into it: a body then costs one small marshal
// instead of re-escaping tens of kilobytes of model XML.
func withModel(v any, model []byte) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types marshal unconditionally
	}
	i := bytes.Index(b, emptyModelField)
	if i < 0 {
		panic("body has no empty modelXml field")
	}
	i += len(emptyModelField) - 2
	out := make([]byte, 0, len(b)+len(model))
	out = append(out, b[:i]...)
	out = append(out, model...)
	return append(out, b[i+2:]...)
}

func encodeModel(m *uml.Model) (string, error) {
	var b strings.Builder
	if err := uml.Encode(&b, m); err != nil {
		return "", err
	}
	return b.String(), nil
}

func encodeMapping(mp *mapping.Mapping) (string, error) {
	var b strings.Builder
	if err := mp.Encode(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// usiClients are the twelve clients of the USI network (Figure 9).
var usiClients = []string{"t1", "t2", "t3", "t6", "t7", "t8", "t10", "t11", "t12", "t13", "t14", "t15"}

// usiServers are the USI servers, the batch paths targets.
var usiServers = []string{"db", "backup", "email", "file1", "file2", "printS"}

// usiCorpus is the paper's case-study model with the printing service, and
// the Table I mapping seen from each client.
type usiCorpus struct {
	escaped  []byte   // the model XML as a JSON string literal
	mappings []string // per usiClients entry
}

func newUSICorpus() (*usiCorpus, error) {
	m, err := casestudy.BuildModel()
	if err != nil {
		return nil, err
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		return nil, err
	}
	xml, err := encodeModel(m)
	if err != nil {
		return nil, err
	}
	c := &usiCorpus{escaped: jsonString(xml)}
	for _, t := range usiClients {
		mp := casestudy.TableIMapping()
		if t != "t1" {
			if _, err := mp.RemapComponent("t1", t); err != nil {
				return nil, err
			}
		}
		s, err := encodeMapping(mp)
		if err != nil {
			return nil, err
		}
		c.mappings = append(c.mappings, s)
	}
	return c, nil
}

func (c *usiCorpus) generate(client int) generateRequest {
	return generateRequest{
		modelInput: modelInput{Diagram: casestudy.DiagramName},
		Service:    casestudy.PrintingServiceName,
		MappingXML: c.mappings[client],
	}
}

// analysisBody renders one analysis route body over a generate fragment.
func analysisBody(route string, g generateRequest, model []byte, mcSeed int64) []byte {
	switch route {
	case routeAvailability:
		return withModel(availabilityRequest{generateRequest: g, MCSamples: mcSamples, Seed: mcSeed}, model)
	case routeQoS:
		return withModel(qosRequest{generateRequest: g}, model)
	default:
		return withModel(explainRequest{generateRequest: g}, model)
	}
}

var analysisRoutes = []string{routeAvailability, routeQoS, routeExplain}

// replayWorkload: 12 client perspectives × {availability, qos, explain} on
// the USI model, primed once, then drawn uniformly — every measured request
// is a warm-lane hit.
func replayWorkload(seed uint64) (*workload, error) {
	usi, err := newUSICorpus()
	if err != nil {
		return nil, err
	}
	var bodies []request
	for ci, t := range usiClients {
		for _, route := range analysisRoutes {
			bodies = append(bodies, request{
				route: route,
				id:    route + "/" + t,
				body:  analysisBody(route, usi.generate(ci), usi.escaped, int64(seed)),
			})
		}
	}
	return &workload{
		name:     "replay",
		prime:    bodies,
		distinct: len(bodies),
		next: func(i uint64) request {
			return bodies[rngFor(seed, i).IntN(len(bodies))]
		},
	}, nil
}

// campusCorpus is one generated campus network carrying the 3-stage
// request/process/reply service, with its client and server inventories.
type campusCorpus struct {
	escaped []byte // the model XML as a JSON string literal
	clients []string
	servers []string
}

// campusService names the composite service of the generated campus models.
const campusService = "rpc"

// analyzeCampus is the analyze (and batch) model: 48 clients, 8 servers.
var analyzeCampus = topology.CampusParams{EdgeSwitches: 8, ClientsPerEdge: 6, ServersPerSwitch: 4, RedundantCore: true}

func campusInventory(p topology.CampusParams) (clients, servers []string) {
	for i := 1; i <= p.EdgeSwitches*p.ClientsPerEdge; i++ {
		clients = append(clients, fmt.Sprintf("t%d", i))
	}
	for i := 1; i <= 2*p.ServersPerSwitch; i++ {
		servers = append(servers, fmt.Sprintf("srv%d", i))
	}
	return clients, servers
}

// buildCampus generates the campus model; classes overrides node-class
// availability attributes.
func buildCampus(name string, p topology.CampusParams, classes map[string]modelgen.ClassParams) (*campusCorpus, error) {
	g, err := topology.Campus(p)
	if err != nil {
		return nil, err
	}
	m, err := modelgen.Build(name, g, modelgen.Params{Classes: classes})
	if err != nil {
		return nil, err
	}
	if _, err := service.NewSequential(m, campusService, "request", "process", "reply"); err != nil {
		return nil, err
	}
	xml, err := encodeModel(m)
	if err != nil {
		return nil, err
	}
	c := &campusCorpus{escaped: jsonString(xml)}
	c.clients, c.servers = campusInventory(p)
	return c, nil
}

// perspective is one user's view of the campus service: client t calls
// server s1, which calls s2, which replies to t.
type perspective struct{ t, s1, s2 string }

func (c *campusCorpus) draw(r *rand.Rand) perspective {
	s1 := r.IntN(len(c.servers))
	s2 := r.IntN(len(c.servers) - 1)
	if s2 >= s1 {
		s2++
	}
	return perspective{c.clients[r.IntN(len(c.clients))], c.servers[s1], c.servers[s2]}
}

func (c *campusCorpus) generate(p perspective) generateRequest {
	mp := mapping.New()
	for _, pair := range []mapping.Pair{
		{AtomicService: "request", Requester: p.t, Provider: p.s1},
		{AtomicService: "process", Requester: p.s1, Provider: p.s2},
		{AtomicService: "reply", Requester: p.s2, Provider: p.t},
	} {
		if err := mp.Add(pair); err != nil {
			panic(err) // the pairs are well-formed by construction
		}
	}
	s, err := encodeMapping(mp)
	if err != nil {
		panic(err) // encoding to a strings.Builder cannot fail
	}
	return generateRequest{
		modelInput: modelInput{Diagram: "infrastructure"},
		Service:    campusService,
		MappingXML: s,
	}
}

// perspectives is the size of the campus perspective space.
func (c *campusCorpus) perspectives() int {
	return len(c.clients) * len(c.servers) * (len(c.servers) - 1)
}

// analyzeRoute draws the analyze route mix: 50 % availability, 30 % qos,
// 20 % explain.
func analyzeRoute(r *rand.Rand) string {
	switch x := r.IntN(10); {
	case x < 5:
		return routeAvailability
	case x < 8:
		return routeQoS
	}
	return routeExplain
}

// analyzeWorkload: one warm campus model, a fresh perspective per request —
// the cache misses and Steps 6–8 plus §VII run every time.
func analyzeWorkload(seed uint64) (*workload, error) {
	c, err := buildCampus("campus", analyzeCampus, nil)
	if err != nil {
		return nil, err
	}
	mk := func(p perspective, route string) request {
		return request{
			route: route,
			id:    fmt.Sprintf("%s/%s/%s/%s", route, p.t, p.s1, p.s2),
			body:  analysisBody(route, c.generate(p), c.escaped, int64(seed)),
		}
	}
	// The priming pass serves every route twice.
	var prime []request
	for k := uint64(0); k < 2*uint64(len(analysisRoutes)); k++ {
		prime = append(prime, mk(c.draw(rngFor(fixedSeed, primeStream+k)), analysisRoutes[k%uint64(len(analysisRoutes))]))
	}
	return &workload{
		name:  "analyze",
		prime: prime,
		next: func(i uint64) request {
			r := rngFor(seed, i)
			p := c.draw(r)
			return mk(p, analyzeRoute(r))
		},
	}, nil
}

// Churn MTBF sentinels: the template models carry these values, and each
// request substitutes its own jittered ones, so raw model XML never repeats.
const (
	sentinelClientMTBF = 31415.926535
	sentinelServerMTBF = 27182.818284
)

// The churn campus sizes, in edge switches.
const (
	churnMinEdges = 4
	churnMaxEdges = 16
)

var churnCampus = topology.CampusParams{ClientsPerEdge: 6, ServersPerSwitch: 4, RedundantCore: true}

// churnWorkload: a never-seen model per request, alternating ranked (k=5 by
// throughput) and full path discovery — every request misses the generator
// pool and pays XML decode, Step 5 import and kernel compilation.
func churnWorkload(seed uint64) (*workload, error) {
	sentinelClient := []byte(strconv.FormatFloat(sentinelClientMTBF, 'g', -1, 64))
	sentinelServer := []byte(strconv.FormatFloat(sentinelServerMTBF, 'g', -1, 64))
	var templates []*campusCorpus
	for e := churnMinEdges; e <= churnMaxEdges; e++ {
		p := churnCampus
		p.EdgeSwitches = e
		c, err := buildCampus(fmt.Sprintf("churn-e%d", e), p, map[string]modelgen.ClassParams{
			"Client": {MTBF: sentinelClientMTBF, MTTR: 24},
			"Server": {MTBF: sentinelServerMTBF, MTTR: 0.5},
		})
		if err != nil {
			return nil, err
		}
		if !bytes.Contains(c.escaped, sentinelClient) || !bytes.Contains(c.escaped, sentinelServer) {
			return nil, fmt.Errorf("churn template e=%d lost its MTBF sentinels", e)
		}
		templates = append(templates, c)
	}
	mk := func(r *rand.Rand, c *campusCorpus, i uint64, id string) request {
		// The fractional digits carry i, so no two requests share a model.
		model := bytes.ReplaceAll(c.escaped, sentinelClient,
			[]byte(fmt.Sprintf("%d.%06d", 2000+r.IntN(4000), i%1000000)))
		model = bytes.ReplaceAll(model, sentinelServer,
			[]byte(fmt.Sprintf("%d.%06d", 40000+r.IntN(40000), i/1000000)))
		req := pathsRequest{
			modelInput: modelInput{Diagram: "infrastructure"},
			From:       c.clients[r.IntN(len(c.clients))],
			To:         c.servers[r.IntN(len(c.servers))],
		}
		if i%2 == 0 {
			req.K, req.Cost = 5, "throughput"
		}
		return request{route: routePaths, id: id, body: withModel(req, model)}
	}
	// The priming models have the middle size.
	var prime []request
	for k := uint64(0); k < 2; k++ {
		prime = append(prime, mk(rngFor(fixedSeed, primeStream+k), templates[len(templates)/2], k, fmt.Sprintf("prime/%d", k)))
	}
	return &workload{
		name:  "churn",
		prime: prime,
		next: func(i uint64) request {
			r := rngFor(seed, i)
			return mk(r, templates[r.IntN(len(templates))], i, fmt.Sprintf("paths/%d", i))
		},
	}, nil
}

// batchOps are the batch item operations.
var batchOps = []string{server.OpGenerate, server.OpAvailability, server.OpQoS, server.OpPaths}

// batchWorkload: 16-item batches over the USI and campus models, half from
// a hot set of 32 items (the Table I generate item among them), half fresh.
func batchWorkload(seed uint64) (*workload, error) {
	usi, err := newUSICorpus()
	if err != nil {
		return nil, err
	}
	campus, err := buildCampus("campus", analyzeCampus, nil)
	if err != nil {
		return nil, err
	}
	// draw renders an item of op on the USI or the campus model, with a
	// random perspective; mcSeed seeds availability items.
	draw := func(r *rand.Rand, op string, onUSI bool, mcSeed int64) []byte {
		var (
			it    server.BatchItem
			model []byte
		)
		if onUSI {
			model = usi.escaped
			ci := r.IntN(len(usiClients))
			if op == server.OpPaths {
				it = server.BatchItem{From: usiClients[ci], To: usiServers[r.IntN(len(usiServers))]}
			} else {
				g := usi.generate(ci)
				it = server.BatchItem{Service: g.Service, MappingXML: g.MappingXML}
			}
			it.Diagram = casestudy.DiagramName
		} else {
			model = campus.escaped
			p := campus.draw(r)
			if op == server.OpPaths {
				it = server.BatchItem{From: p.t, To: p.s1}
			} else {
				g := campus.generate(p)
				it = server.BatchItem{Service: g.Service, MappingXML: g.MappingXML}
			}
			it.Diagram = "infrastructure"
		}
		it.Op = op
		switch op {
		case server.OpAvailability:
			it.MCSamples, it.Seed = mcSamples, mcSeed
		case server.OpPaths:
			if r.IntN(2) == 0 {
				it.K, it.Cost = 5, "throughput"
			}
		}
		return withModel(it, model)
	}

	t1 := usi.generate(0)
	tableI := withModel(server.BatchItem{
		Op: server.OpGenerate, Diagram: casestudy.DiagramName,
		Service: t1.Service, MappingXML: t1.MappingXML,
	}, usi.escaped)
	// The hot set, which the priming pass serves, cycles through every op on
	// both models.
	hot := [][]byte{tableI}
	seen := map[string]bool{string(tableI): true}
	hr := rngFor(fixedSeed, hotStream)
	for k := 0; len(hot) < batchHot; k++ {
		it := draw(hr, batchOps[k%len(batchOps)], k/len(batchOps)%2 == 0, 1)
		if !seen[string(it)] {
			seen[string(it)] = true
			hot = append(hot, it)
		}
	}
	render := func(id string, items [][]byte) request {
		req := request{route: routeBatch, id: id, items: len(items)}
		b := []byte(`{"items":[`)
		for k, it := range items {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, it...)
			if bytes.Equal(it, tableI) {
				req.tableI = append(req.tableI, k)
			}
		}
		req.body = append(b, "]}"...)
		return req
	}
	return &workload{
		name: "batch",
		prime: []request{
			render("prime/0", hot[:batchHot/2]),
			render("prime/1", hot[batchHot/2:]),
		},
		next: func(i uint64) request {
			r := rngFor(seed, i)
			items := make([][]byte, batchSize)
			for k := range items {
				if r.IntN(2) == 0 {
					items[k] = hot[r.IntN(len(hot))]
				} else {
					// A fresh availability item gets a Monte Carlo seed no
					// other item uses.
					op, onUSI := batchOps[r.IntN(len(batchOps))], r.IntN(2) == 0
					items[k] = draw(r, op, onUSI, int64(seed<<32|i*batchSize+uint64(k)+1))
				}
			}
			return render(fmt.Sprintf("batch/%d", i), items)
		},
	}, nil
}
