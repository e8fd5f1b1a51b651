//go:build race

package ann_test

// Under the race detector sync.Pool drops a quarter of its Puts at
// random, so per-search allocation counts are not meaningful.
func init() { raceEnabled = true }
