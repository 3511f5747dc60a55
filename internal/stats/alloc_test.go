package stats

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testkit"
)

// The per-transaction accumulators run once per decoded transaction on every
// ingest path, so their steady state must allocate nothing: one allocation
// here is one allocation per transaction crawled. These tests hold that
// contract; the time they take is part of core.aggregate_us_per_block in
// the bench/ ledger.

// TestTimeSeriesAddExistingBucketZeroAllocs: an Add into a (bucket,
// label) cell the series holds, whichever bucket it lands in, only bumps a
// counter.
func TestTimeSeriesAddExistingBucketZeroAllocs(t *testing.T) {
	const buckets = 368 // the 92-day window in 6 h buckets
	s := NewTimeSeries(origin, 6*time.Hour)
	for i := 0; i < buckets; i++ {
		s.Add(origin.Add(time.Duration(i)*6*time.Hour), "tx", 1)
	}
	i := 0
	pinAllocs(t, "TimeSeries.Add", 0, func() {
		s.Add(origin.Add(time.Duration(i%buckets)*6*time.Hour), "tx", 1)
		i++
	})
}

// TestTimeSeriesMergeExistingCellsZeroAllocs: merging a series whose
// cells the destination already holds translates its label indexes on the
// stack and adds into existing cells, and encoding a series into a buffer
// it fits sorts in place; both with labels past the stack tables too, when
// the one table they make is all they allocate.
func TestTimeSeriesMergeExistingCellsZeroAllocs(t *testing.T) {
	for _, labels := range []int{3, smallLabels, 3 * smallLabels} {
		src := NewTimeSeries(origin, 6*time.Hour)
		for i := range 368 {
			src.AddBucket(i, fmt.Sprint("label", labels-1-i%labels), int64(i))
		}
		dst := NewTimeSeries(origin, 6*time.Hour)
		dst.Merge(src)
		want := 0.0
		if labels > smallLabels {
			want = 1
		}
		name := fmt.Sprintf("%d labels", labels)
		pinAllocs(t, name+": TimeSeries.Merge", want, func() { dst.Merge(src) })
		buf := src.AppendEntries(nil)
		pinAllocs(t, name+": TimeSeries.AppendEntries", want, func() { buf = src.AppendEntries(buf[:0]) })
	}
}

// pinAllocs warms the path once, then requires exactly want allocations
// per run.
func pinAllocs(t *testing.T, name string, want float64, run func()) {
	t.Helper()
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != want {
		t.Errorf("%s: %.1f allocs/op in steady state, want %v", name, allocs, want)
	}
}

// TestGiniPooledScratchZeroAllocs: a Selector sorts a copy of its input;
// the copy lives in the pooled Selector, so a repeat Load over no more
// values than the pool has seen reuses it.
func TestGiniPooledScratchZeroAllocs(t *testing.T) {
	xs := make([]float64, 1_000)
	for i := range xs {
		xs[i] = float64(i * i % 7919)
	}
	pinAllocs(t, "Gini", 0, func() {
		s := GetSelector()
		s.Load(xs)
		_ = s.Gini()
		PutSelector(s)
	})
}
