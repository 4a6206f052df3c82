// Package lib is the fixture's product package.
package lib

import "fmt"

// Shape is an interface the tree declares: methods it names are called
// through it, never by their own identifier.
type Shape interface {
	Area() int
}

// Used is called by the module root.
func Used() int { return 1 }

// OnlyTests is called by lib_test.go alone.
func OnlyTests() int { return 2 } // want testonly

// UsedByBench is called from the bench-style directory alone.
func UsedByBench() int { return 3 }

// Point is a product type with interface-satisfying methods.
type Point struct{ X int }

// Area implements Shape.
func (p Point) Area() int { return p.X * p.X }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d)", p.X) }

// Scale is a method lib_test.go alone calls.
func (p Point) Scale(k int) Point { return Point{X: p.X * k} } // want testonly

// Limit is a constant lib_test.go alone reads.
const Limit = 4 // want testonly
