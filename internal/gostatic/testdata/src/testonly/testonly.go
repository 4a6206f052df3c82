// Package testonly is the upsimvet fixture of the whole-tree testonly rule:
// a module root (this facade), one internal package and a bench-style
// command. The rule must report only the names lib_test.go alone uses.
package testonly

import "testonly/internal/lib"

// Area reports the area of a unit square scaled through the fixture API.
func Area() int {
	var s lib.Shape = lib.Point{X: lib.Used()}
	return s.Area()
}
