//go:build race

package platform_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
