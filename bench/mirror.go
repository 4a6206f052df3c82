package main

// Mirrors of internal/server's request and response types. The bench builds
// its bodies from the request mirrors, and the traced ladder decodes and
// encodes through them; field order and tags follow internal/server exactly,
// so the ladder's encoded bytes can be compared with the handler's.

import "upsim/internal/explain"

type modelInput struct {
	ModelXML string `json:"modelXml"`
	Diagram  string `json:"diagram"`
}

type generateRequest struct {
	modelInput
	Service           string `json:"service"`
	MappingXML        string `json:"mappingXml"`
	Name              string `json:"name,omitempty"`
	AllowDisconnected bool   `json:"allowDisconnected,omitempty"`
}

type availabilityRequest struct {
	generateRequest
	Formula1     bool  `json:"formula1,omitempty"`
	MCSamples    int   `json:"mcSamples,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	LegacyKernel bool  `json:"legacyKernel,omitempty"`
}

type qosRequest struct {
	generateRequest
	MaxHops int `json:"maxHops,omitempty"`
}

type explainRequest struct {
	generateRequest
	Mode            string `json:"mode,omitempty"`
	Top             int    `json:"top,omitempty"`
	CutLimit        int    `json:"cutLimit,omitempty"`
	Formula1        bool   `json:"formula1,omitempty"`
	LegacyKernel    bool   `json:"legacyKernel,omitempty"`
	SkipAttribution bool   `json:"skipAttribution,omitempty"`
	CurrentModelXML string `json:"currentModelXml,omitempty"`
	CurrentDiagram  string `json:"currentDiagram,omitempty"`
}

type pathsRequest struct {
	modelInput
	From     string `json:"from"`
	To       string `json:"to"`
	MaxDepth int    `json:"maxDepth,omitempty"`
	MaxPaths int    `json:"maxPaths,omitempty"`
	K        int    `json:"k,omitempty"`
	Cost     string `json:"cost,omitempty"`
}

type rankedPathJSON struct {
	Path           string   `json:"path"`
	Hops           int      `json:"hops"`
	Cost           float64  `json:"cost"`
	BottleneckMbps float64  `json:"bottleneckMbps,omitempty"`
	Channels       []string `json:"channels,omitempty"`
}

type pathsResponse struct {
	Paths        []string               `json:"paths"`
	PathCount    int                    `json:"pathCount"`
	EdgeVisits   int                    `json:"edgeVisits"`
	NodesVisited int                    `json:"nodesVisited"`
	MaxStack     int                    `json:"maxStack"`
	Pruned       int                    `json:"pruned"`
	Truncated    bool                   `json:"truncated"`
	CostMetric   string                 `json:"costMetric,omitempty"`
	Ranked       []rankedPathJSON       `json:"ranked,omitempty"`
	PathStats    explain.PathStatistics `json:"pathStats"`
}

type linkJSON struct {
	A           string `json:"a"`
	B           string `json:"b"`
	Association string `json:"association"`
}

type serviceStatsJSON struct {
	AtomicService string                 `json:"atomicService"`
	Requester     string                 `json:"requester"`
	Provider      string                 `json:"provider"`
	Paths         int                    `json:"paths"`
	EdgeVisits    int                    `json:"edgeVisits"`
	NodesVisited  int                    `json:"nodesVisited"`
	MaxStack      int                    `json:"maxStack"`
	Pruned        int                    `json:"pruned"`
	Truncated     bool                   `json:"truncated"`
	PathStats     explain.PathStatistics `json:"pathStats"`
}

type generateResponse struct {
	Name       string                 `json:"name"`
	Nodes      []string               `json:"nodes"`
	Links      []linkJSON             `json:"links"`
	Paths      map[string][]string    `json:"pathsByService"`
	TotalPaths int                    `json:"totalPaths"`
	EdgeVisits int                    `json:"edgeVisits"`
	Services   []serviceStatsJSON     `json:"serviceStats"`
	PathStats  explain.PathStatistics `json:"pathStats"`
	Truncated  bool                   `json:"truncated"`
}

type availabilityResponse struct {
	Exact                float64 `json:"exact"`
	RBDApprox            float64 `json:"rbdApprox"`
	FTApprox             float64 `json:"ftApprox"`
	MonteCarlo           float64 `json:"monteCarlo"`
	MCStdErr             float64 `json:"mcStdErr"`
	DowntimePerYearHours float64 `json:"downtimePerYearHours"`
	Components           int     `json:"components"`
}

type qosResponse struct {
	ThroughputMbps    float64 `json:"throughputMbps"`
	MaxHops           int     `json:"maxHops"`
	Responsiveness    float64 `json:"responsiveness"`
	Availability      float64 `json:"availability"`
	PathsWithinBudget int     `json:"pathsWithinBudget"`
	PathsTotal        int     `json:"pathsTotal"`
}
