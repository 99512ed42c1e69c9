// Fixture dependency package: its effect summaries are exported as facts
// and consumed when xhot (which imports it) is analyzed.
package xpkg

import "sync"

var mu sync.Mutex

// deep is two levels below the exported entry point.
func deep() {
	mu.Lock()
	mu.Unlock()
}

// Middle is the exported entry point xhot's hot root calls.
func Middle() {
	deep()
}

//minigiraffe:hot
func HotLeaf(ch chan int) {
	ch <- 1 // want `channel send in hot function HotLeaf`
}
