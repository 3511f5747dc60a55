//go:build race

package repro

// raceEnabled builds the commands under test with the race detector when
// this test binary has it, so the subprocesses it drives are checked too.
const raceEnabled = true
