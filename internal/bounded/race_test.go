//go:build race

package bounded

// raceEnabled reports a -race build, whose shadow memory makes heap figures
// meaningless.
const raceEnabled = true
