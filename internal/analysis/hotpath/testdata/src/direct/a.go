// Fixture for the hotpath analyzer's direct pass: //minigiraffe:hot bodies
// must be free of fmt, string concatenation, map allocation, and
// unpreallocated append growth, each reported once, where it occurs.
package direct

import "fmt"

//minigiraffe:hot
func hotConcat(a, b string) string {
	return a + b // want `string concatenation in hot function hotConcat`
}

//minigiraffe:hot
func hotFmt(x int) string {
	return fmt.Sprintf("%d", x) // want `call to fmt.Sprintf in hot function hotFmt`
}

//minigiraffe:hot
func hotMakeMap(n int) map[int]bool {
	return make(map[int]bool, n) // want `map allocation in hot function hotMakeMap`
}

//minigiraffe:hot
func hotMapLiteral() map[string]int {
	return map[string]int{"a": 1} // want `map allocation in hot function hotMapLiteral`
}

//minigiraffe:hot
func hotAppendGrowth(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `append grows out inside a loop`
	}
	return out
}

//minigiraffe:hot
func hotAppendPreallocated(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

//minigiraffe:hot
func hotAppendOutsideLoop(xs []int, x int) []int {
	return append(xs, x) // a single bounded append is amortized, not growth
}

//minigiraffe:hot
func hotConstConcat() string {
	const prefix = "a" + "b" // folded at compile time
	return prefix
}

// coldAllOfIt is unannotated: none of this is reported.
func coldAllOfIt(a, b string) string {
	m := map[string]int{}
	m[a] = 1
	return fmt.Sprintf("%s%d", a+b, m[a])
}

// grow is cold, so its loop may grow a slice — and append growth is a
// direct-only kind: a hot caller does not inherit it.
func grow(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

//minigiraffe:hot
func hotCallsGrow(xs []int) []int {
	return grow(xs)
}

//minigiraffe:hot
func hotSuppressedAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) //vetgiraffe:ignore hotpath bounded by the caller's batch size
	}
	return out
}
