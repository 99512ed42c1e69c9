//go:build race

package core_test

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so allocation budgets that assume a warm pool do not hold.
const raceEnabled = true
