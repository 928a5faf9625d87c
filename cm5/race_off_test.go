//go:build !race

package cm5_test

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
