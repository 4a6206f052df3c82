package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 2 || (Point{X: 1}).Scale(Limit).X != Limit {
		t.Fatal("fixture broken")
	}
}
