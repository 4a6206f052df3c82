package pathdisc

// OracleAllPaths exposes the map-based reference walker to the external
// test package, which can import the case study without an import cycle.
var OracleAllPaths = oracleAllPaths
