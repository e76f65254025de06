//go:build !race

package platform_test

const raceEnabled = false
