//go:build race

package testkit

// Race reports whether the test binary was built with -race.
const Race = true
