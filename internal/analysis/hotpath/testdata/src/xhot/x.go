// Fixture hot root: inherits xpkg's effect summaries through facts — the
// blocking lock it reports lives two calls away in another package.
package xhot

import "repro/internal/analysis/hotpath/testdata/src/xpkg"

//minigiraffe:hot
func HotRoot() {
	xpkg.Middle() // want `call to \(\*sync.Mutex\).Lock \(blocking\) at x.go:\d+ reachable from hot function HotRoot via xpkg.Middle -> deep`
}

//minigiraffe:hot
func HotCallsForeignHot(ch chan int) {
	xpkg.HotLeaf(ch) // foreign hot callee is policed at its definition: no finding
}
