//go:build !race

package bounded

// raceEnabled reports a -race build, whose shadow memory makes heap figures
// meaningless.
const raceEnabled = false

// historyPairs is how many pairs TestAllocsBoundedHistory runs before its
// second count: past the third trie level, or, under -race, short of it.
const historyPairs = 300_000
