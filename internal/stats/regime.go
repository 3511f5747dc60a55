package stats

// RegimeShift describes the strongest level change found in a series: the
// bucket index where the mean of everything after diverges most from the
// mean of everything before. The paper's Figure 3a shows exactly one such
// shift — the November 1 EIDOS launch multiplying EOS throughput by more
// than 10×.
type RegimeShift struct {
	// Bucket is the first index of the new regime.
	Bucket int
	// Before and After are the mean per-bucket counts on each side.
	Before, After float64
	// Ratio is After/Before (∞ is clamped to After when Before is 0).
	Ratio float64
}

// DetectRegimeShift scans a per-bucket series for the split point
// maximizing the change in mean level. minSegment buckets are required on
// both sides; it returns ok=false when the series is too short or flat.
func DetectRegimeShift(values []int64, minSegment int) (RegimeShift, bool) {
	if minSegment < 1 {
		minSegment = 1
	}
	n := len(values)
	if n < 2*minSegment {
		return RegimeShift{}, false
	}
	prefix := make([]int64, n+1)
	for i, v := range values {
		prefix[i+1] = prefix[i] + v
	}
	best := RegimeShift{}
	bestScore := -1.0
	for split := minSegment; split <= n-minSegment; split++ {
		before := float64(prefix[split]) / float64(split)
		after := float64(prefix[n]-prefix[split]) / float64(n-split)
		diff := after - before
		if diff < 0 {
			diff = -diff
		}
		if diff > bestScore {
			bestScore = diff
			best = RegimeShift{Bucket: split, Before: before, After: after}
		}
	}
	if bestScore <= 0 {
		return RegimeShift{}, false
	}
	if best.Before > 0 {
		best.Ratio = best.After / best.Before
	} else {
		best.Ratio = best.After
	}
	return best, true
}

// TotalValues returns each bucket's total across all labels, buckets 0
// through ts.MaxBucket() in order, with zeros for the gap buckets between
// populated ones (an empty series gives an empty slice). It sums the cells
// in place into the one slice it returns, so a summary costs one
// allocation here however many buckets the series spans.
func TotalValues(ts *TimeSeries) []int64 {
	out := make([]int64, ts.MaxBucket()+1)
	for c, n := range ts.cells {
		out[c.bucket] += n
	}
	return out
}
