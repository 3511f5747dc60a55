package chain

import (
	"fmt"
	"time"
)

// ObservationStart and ObservationEnd bracket the paper's measurement window
// (October 1, 2019 through December 31, 2019, UTC).
var (
	ObservationStart = time.Date(2019, time.October, 1, 0, 0, 0, 0, time.UTC)
	ObservationEnd   = time.Date(2019, time.December, 31, 23, 59, 59, 0, time.UTC)
	// EIDOSLaunch is when the EIDOS airdrop started flooding EOS (Nov 1, 2019).
	EIDOSLaunch = time.Date(2019, time.November, 1, 0, 0, 0, 0, time.UTC)
)

// Clock is a simulated wall clock that blockchains advance one block interval
// at a time. It decouples the simulation from the host clock so that three
// months of ledger history can be generated deterministically in seconds.
type Clock struct {
	now  time.Time
	step time.Duration
}

// NewClock returns a clock positioned at start that advances by step.
func NewClock(start time.Time, step time.Duration) *Clock {
	if step <= 0 {
		panic(fmt.Sprintf("chain: non-positive clock step %v", step))
	}
	return &Clock{now: start, step: step}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time { return c.now }

// Tick advances the clock by one block interval and returns the new time.
func (c *Clock) Tick() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}
