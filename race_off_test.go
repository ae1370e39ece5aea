//go:build !race

package modemerge

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = false
