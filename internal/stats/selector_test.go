package stats

import (
	"math"
	"testing"
)

// loaded returns a selector over xs.
func loaded(xs ...float64) *Selector {
	var s Selector
	s.Load(xs)
	return &s
}

func TestPercentileEmptyAndClamped(t *testing.T) {
	if got := loaded().Percentile(50); got != 0 {
		t.Fatalf("Percentile over nothing = %v, want 0", got)
	}
	s := loaded(3, 1, 2)
	if got := s.Percentile(-10); got != 1 {
		t.Fatalf("p<=0 must clamp to min, got %v", got)
	}
	if got := s.Percentile(200); got != 3 {
		t.Fatalf("p>=100 must clamp to max, got %v", got)
	}
}

// TestPercentileNonFinite pins where NaN and ±Inf land in the sorted order
// (slices.Sort places NaN first and +Inf last), so a poisoned input yields
// deterministic — if meaningless — percentiles rather than flaky ones.
func TestPercentileNonFinite(t *testing.T) {
	s := loaded(1, math.NaN(), 3, math.Inf(1), 2)
	if got := s.Percentile(0); !math.IsNaN(got) {
		t.Fatalf("p0 over NaN-poisoned input = %v, want NaN (sorts first)", got)
	}
	if got := s.Percentile(100); !math.IsInf(got, 1) {
		t.Fatalf("p100 over +Inf-poisoned input = %v, want +Inf (sorts last)", got)
	}
	// The middle of [NaN 1 2 3 +Inf] is finite; interpolation between the
	// finite neighbours must stay finite.
	if got := s.Percentile(50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	// Same data loaded twice gives byte-identical answers.
	s2 := loaded(math.Inf(1), 2, math.NaN(), 1, 3)
	for _, p := range []float64{0, 25, 50, 75, 100} {
		a, b := s.Percentile(p), s2.Percentile(p)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("p%v unstable across input orderings: %v vs %v", p, a, b)
		}
	}
}

func TestSelectorReload(t *testing.T) {
	s := GetSelector()
	defer PutSelector(s)
	s.Load([]float64{10, 20})
	if got := s.Percentile(100); got != 20 {
		t.Fatalf("first load p100 = %v", got)
	}
	// Reload with fewer values must not leak the old tail through the
	// recycled scratch buffer.
	s.Load([]float64{5})
	if got, n := s.Percentile(100), len(s.sorted); got != 5 || n != 1 {
		t.Fatalf("after reload: p100 = %v, N = %d, want 5 and 1", got, n)
	}
	s.Load(nil)
	if got, n := s.Percentile(50), len(s.sorted); got != 0 || n != 0 {
		t.Fatalf("after empty reload: p50 = %v, N = %d, want 0 and 0", got, n)
	}
}
