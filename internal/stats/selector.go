package stats

import (
	"math"
	"slices"
	"sync"
)

// Selector answers order statistics over one data set from a single shared
// sort. core.ChainSummary renders a whole quantile grid plus concentration
// statistics per chain; before Selector each call (Percentile ×3, Gini,
// TopShare) copied and re-sorted the same input. Load once, query freely.
//
// The zero value is ready to Load. A Selector holds its sorted scratch
// across Loads, so steady-state use allocates nothing; recycle through
// GetSelector/PutSelector to share scratch between call sites.
type Selector struct {
	sorted []float64
	total  float64
}

// Load replaces the data set with a sorted copy of xs, reusing the scratch
// buffer.
func (s *Selector) Load(xs []float64) {
	s.sorted = append(s.sorted[:0], xs...)
	slices.Sort(s.sorted)
	s.total = 0
	for _, x := range s.sorted {
		s.total += x
	}
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It returns 0 for empty input.
func (s *Selector) Percentile(p float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[len(s.sorted)-1]
	}
	rank := p / 100 * float64(len(s.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Gini returns the Gini coefficient of the non-negative values, a measure
// of concentration in [0,1]. The related work the paper builds on (Kondor
// et al.) tracks wealth concentration with this statistic; here it
// quantifies how concentrated per-account traffic is.
func (s *Selector) Gini() float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	var cum, total float64
	for i, x := range s.sorted {
		if x < 0 {
			x = 0
		}
		cum += x * float64(2*(i+1)-n-1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// TopShare returns the fraction of the total contributed by the k largest
// values. The paper reports e.g. "the 18 most active accounts are
// responsible for half of the total traffic".
func (s *Selector) TopShare(k int) float64 {
	n := len(s.sorted)
	if n == 0 || k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	if s.total == 0 {
		return 0
	}
	var top float64
	for _, x := range s.sorted[n-k:] {
		top += x
	}
	return top / s.total
}

var selectorPool = sync.Pool{New: func() any { return new(Selector) }}

// GetSelector takes a selector (with recycled scratch) from the pool.
func GetSelector() *Selector { return selectorPool.Get().(*Selector) }

// PutSelector returns a selector to the pool.
func PutSelector(s *Selector) {
	if cap(s.sorted) <= 1<<20 {
		selectorPool.Put(s)
	}
}
