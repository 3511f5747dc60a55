//go:build race

package archive

// raceEnabled skips allocation-count pins under the race detector, whose
// instrumentation perturbs them.
const raceEnabled = true
