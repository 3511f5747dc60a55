//go:build race

package rpcserve

// raceEnabled skips allocation-count pins under the race detector, whose
// instrumentation perturbs them.
const raceEnabled = true
