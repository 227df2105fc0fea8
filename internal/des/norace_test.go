//go:build !race

package des

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
