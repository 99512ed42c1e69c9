// Package lintme is a CLI-test fixture for cmd/vetgiraffe: Hot carries a
// deliberate hotpath finding, Clean none. Under testdata/ the package is
// invisible to ./... patterns, so `make lint` never sees it.
package lintme

import "fmt"

// Hot formats in a hot function: a guaranteed hotpath finding.
//
//minigiraffe:hot
func Hot(x int) string {
	return fmt.Sprintf("%d", x)
}

// Clean is hot but allocation-free.
//
//minigiraffe:hot
func Clean(x int) int {
	return x + 1
}
