// Command bench stands for a benchmark harness: its uses count.
package main

import (
	"fmt"

	"testonly/internal/lib"
)

func main() { fmt.Println(lib.UsedByBench()) }
