//go:build race

package exec

// raceEnabled reports whether the test binary was built with the race
// detector, whose instrumentation invalidates speed ratios.
const raceEnabled = true
