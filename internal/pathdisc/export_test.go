package pathdisc

// OracleAllPaths exposes the map-based reference walker to the external
// test package, which can import the case study without an import cycle.
var OracleAllPaths = oracleAllPaths

// NumNodes returns the compiled node count.
func (c *Compiled) NumNodes() int { return len(c.names) }

// NumEdges returns the compiled edge count (parallel edges counted).
func (c *Compiled) NumEdges() int { return c.numEdges }

// MaxDegree returns the largest node degree.
func (c *Compiled) MaxDegree() int {
	m := 0
	for i := 0; i+1 < len(c.adjStart); i++ {
		m = max(m, int(c.adjStart[i+1]-c.adjStart[i]))
	}
	return m
}
