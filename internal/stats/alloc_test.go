package stats

import (
	"testing"
	"time"
)

// The per-transaction accumulators run once per decoded transaction on every
// ingest path, so their steady state must allocate nothing: one allocation
// here is one allocation per transaction crawled. These tests hold that
// contract; the time they take is part of core.aggregate_us_per_block in
// the bench/ ledger.

// pinZeroAllocs warms the path once, then requires exactly zero allocations
// per run.
func pinZeroAllocs(t *testing.T, name string, run func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, allocs)
	}
}

func TestWelfordAddZeroAllocs(t *testing.T) {
	var w Welford
	x := 0.0
	pinZeroAllocs(t, "Welford.Add", func() {
		w.Add(x)
		x++
	})
}

// TestTimeSeriesAddExistingBucketZeroAllocs: the first Add into a bucket
// makes its label map; every later one, whichever of the series' buckets it
// lands in, only bumps a counter.
func TestTimeSeriesAddExistingBucketZeroAllocs(t *testing.T) {
	const buckets = 368 // the 92-day window in 6 h buckets
	s := NewTimeSeries(origin, 6*time.Hour)
	for i := 0; i < buckets; i++ {
		s.Add(origin.Add(time.Duration(i)*6*time.Hour), "tx", 1)
	}
	i := 0
	pinZeroAllocs(t, "TimeSeries.Add", func() {
		s.Add(origin.Add(time.Duration(i%buckets)*6*time.Hour), "tx", 1)
		i++
	})
}

// TestGiniPooledScratchZeroAllocs: a Selector sorts a copy of its input;
// the copy lives in the pooled Selector, so a repeat Load over no more
// values than the pool has seen reuses it.
func TestGiniPooledScratchZeroAllocs(t *testing.T) {
	xs := make([]float64, 1_000)
	for i := range xs {
		xs[i] = float64(i * i % 7919)
	}
	pinZeroAllocs(t, "Gini", func() {
		s := GetSelector()
		s.Load(xs)
		_ = s.Gini()
		PutSelector(s)
	})
}
