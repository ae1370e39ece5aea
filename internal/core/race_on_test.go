//go:build race

package core_test

// raceEnabled reports a race-detector build, whose instrumentation
// slows the paper-design merges several times over.
const raceEnabled = true
