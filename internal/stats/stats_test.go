package stats

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2019, time.October, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesBucketing(t *testing.T) {
	s := NewTimeSeries(origin, 6*time.Hour)
	s.Add(origin, "tx", 1)
	s.Add(origin.Add(5*time.Hour+59*time.Minute), "tx", 1)
	s.Add(origin.Add(6*time.Hour), "tx", 1)
	s.Add(origin.Add(30*time.Hour), "endorsement", 4)

	if got := s.Value(0, "tx"); got != 2 {
		t.Fatalf("bucket 0 tx = %d, want 2", got)
	}
	if got := s.Value(1, "tx"); got != 1 {
		t.Fatalf("bucket 1 tx = %d, want 1", got)
	}
	if got := s.Value(5, "endorsement"); got != 4 {
		t.Fatalf("bucket 5 endorsement = %d, want 4", got)
	}
	if got := s.Total("tx"); got != 3 {
		t.Fatalf("total tx = %d", got)
	}
	if got := s.TotalAll(); got != 7 {
		t.Fatalf("total all = %d", got)
	}
}

func TestTimeSeriesRowsContinuous(t *testing.T) {
	s := NewTimeSeries(origin, time.Hour)
	s.Add(origin, "a", 1)
	s.Add(origin.Add(4*time.Hour), "a", 1)
	rows := s.Rows()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (continuous axis)", len(rows))
	}
	if rows[2].Counts["a"] != 0 {
		t.Fatal("gap bucket should be zero")
	}
	if !rows[4].Start.Equal(origin.Add(4 * time.Hour)) {
		t.Fatalf("row 4 start %v", rows[4].Start)
	}
}

func TestTimeSeriesPeakAndClamping(t *testing.T) {
	s := NewTimeSeries(origin, time.Hour)
	if s.MaxBucket() != -1 {
		t.Fatal("empty series should report -1")
	}
	s.Add(origin.Add(-time.Hour), "early", 1) // clamped to bucket 0
	s.Add(origin.Add(2*time.Hour), "spike", 10)
	if s.BucketIndex(origin.Add(-time.Hour)) != 0 {
		t.Fatal("pre-origin timestamps must clamp to bucket 0")
	}
	if s.MaxBucket() != 2 {
		t.Fatalf("max bucket = %d, want 2", s.MaxBucket())
	}
}

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{28.58, 1.00, 46.35, 33.32, 15.35} // Figure 6 avg column
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %f vs %f", w.Mean(), mean)
	}
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs))
	if math.Abs(w.Variance()-v) > 1e-9 {
		t.Fatalf("variance %f vs %f", w.Variance(), v)
	}
}

func TestWelfordMerge(t *testing.T) {
	var a, b, all Welford
	for i := 0; i < 100; i++ {
		x := float64(i * i % 37)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.n != all.n {
		t.Fatalf("merged N = %d", a.n)
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Fatalf("merge mismatch: mean %f/%f var %f/%f", a.Mean(), all.Mean(), a.Variance(), all.Variance())
	}
}

func TestWelfordMergeProperty(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			// Keep magnitudes sane to avoid float blowup dominating.
			xs[i] = math.Mod(xs[i], 1e6)
		}
		var whole Welford
		for _, x := range xs {
			whole.Add(x)
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var left, right Welford
		for _, x := range xs[:k] {
			left.Add(x)
		}
		for _, x := range xs[k:] {
			right.Add(x)
		}
		left.Merge(right)
		return left.n == whole.n &&
			math.Abs(left.Mean()-whole.Mean()) < 1e-6 &&
			math.Abs(left.Variance()-whole.Variance()) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	s := loaded(1, 2, 3, 4, 5)
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.0f = %f, want %f", c.p, got, c.want)
		}
	}
	if loaded().Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestGini(t *testing.T) {
	if g := loaded(5, 5, 5, 5).Gini(); math.Abs(g) > 1e-9 {
		t.Fatalf("equal distribution Gini = %f, want 0", g)
	}
	g := loaded(0, 0, 0, 100).Gini()
	if g < 0.7 {
		t.Fatalf("concentrated distribution Gini = %f, want high", g)
	}
	if loaded().Gini() != 0 {
		t.Fatal("empty Gini should be 0")
	}
}

func TestTopShare(t *testing.T) {
	// 18 accounts responsible for half the traffic: top-1 of this toy set
	// holds 50 of 100.
	s := loaded(50, 10, 10, 10, 10, 10)
	if got := s.TopShare(1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("TopShare = %f", got)
	}
	if got := s.TopShare(100); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TopShare with k>len = %f", got)
	}
	if loaded().TopShare(3) != 0 {
		t.Fatal("empty TopShare should be 0")
	}
}

func TestGzipSizerCompresses(t *testing.T) {
	s := NewGzipSizer()
	block := bytes.Repeat([]byte(`{"type":"transfer","from":"alice","to":"bob"}`), 1000)
	if _, err := s.Write(block); err != nil {
		t.Fatal(err)
	}
	compressed, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if compressed <= 0 || compressed >= int64(len(block)) {
		t.Fatalf("compressed %d of %d raw bytes: repetitive JSON should shrink", compressed, len(block))
	}
}

func TestGzipSizerIncrementalRead(t *testing.T) {
	s := NewGzipSizer()
	s.Write(bytes.Repeat([]byte("abc"), 100))
	first := s.CompressedBytes()
	if first <= 0 {
		t.Fatal("flush reported zero bytes")
	}
	s.Write(bytes.Repeat([]byte("xyz"), 10000))
	second := s.CompressedBytes()
	if second <= first {
		t.Fatalf("compressed size did not grow: %d then %d", first, second)
	}
}

func TestDetectRegimeShift(t *testing.T) {
	// 30 quiet buckets at ~100, then 60 at ~1100: a clean 11x shift.
	var vals []int64
	for i := 0; i < 30; i++ {
		vals = append(vals, 100+int64(i%7))
	}
	for i := 0; i < 60; i++ {
		vals = append(vals, 1100+int64(i%13))
	}
	shift, ok := DetectRegimeShift(vals, 5)
	if !ok {
		t.Fatal("no shift detected")
	}
	if shift.Bucket < 28 || shift.Bucket > 32 {
		t.Fatalf("shift at bucket %d, want ~30", shift.Bucket)
	}
	if shift.Ratio < 9 || shift.Ratio > 13 {
		t.Fatalf("ratio = %f, want ~11", shift.Ratio)
	}
}

func TestDetectRegimeShiftDegenerate(t *testing.T) {
	if _, ok := DetectRegimeShift([]int64{1, 2}, 5); ok {
		t.Fatal("too-short series produced a shift")
	}
	if _, ok := DetectRegimeShift([]int64{5, 5, 5, 5, 5, 5}, 2); ok {
		t.Fatal("flat series produced a shift")
	}
	// Zero-to-something: ratio clamps to the new level.
	shift, ok := DetectRegimeShift([]int64{0, 0, 0, 40, 40, 40}, 2)
	if !ok || shift.Ratio != 40 {
		t.Fatalf("zero baseline: %+v ok=%v", shift, ok)
	}
}

func TestSeriesValueExtraction(t *testing.T) {
	s := NewTimeSeries(origin, time.Hour)
	s.Add(origin, "a", 3)
	s.Add(origin.Add(time.Hour), "b", 4)
	if got := TotalValues(s); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("total values: %v", got)
	}
}

func TestTimeSeriesMerge(t *testing.T) {
	a := NewTimeSeries(origin, time.Hour)
	a.Add(origin, "tx", 3)
	a.Add(origin.Add(2*time.Hour), "tx", 1)
	b := NewTimeSeries(origin, time.Hour)
	b.Add(origin, "tx", 2)
	b.Add(origin.Add(time.Hour), "other", 5)

	a.Merge(b)
	if got := a.Value(0, "tx"); got != 5 {
		t.Fatalf("bucket 0 tx = %d, want 5", got)
	}
	if got := a.Value(1, "other"); got != 5 {
		t.Fatalf("bucket 1 other = %d, want 5", got)
	}
	if got := a.Value(2, "tx"); got != 1 {
		t.Fatalf("bucket 2 tx = %d, want 1", got)
	}
	if labels := a.Labels(); len(labels) != 2 || labels[0] != "other" || labels[1] != "tx" {
		t.Fatalf("merged labels: %v", labels)
	}
	// Merge must be commutative: the reverse order gives the same totals.
	c := NewTimeSeries(origin, time.Hour)
	c.Add(origin, "tx", 2)
	c.Add(origin.Add(time.Hour), "other", 5)
	d := NewTimeSeries(origin, time.Hour)
	d.Add(origin, "tx", 3)
	d.Add(origin.Add(2*time.Hour), "tx", 1)
	c.Merge(d)
	if c.TotalAll() != a.TotalAll() || c.Total("tx") != a.Total("tx") {
		t.Fatalf("merge order changed totals: %d/%d vs %d/%d",
			c.TotalAll(), c.Total("tx"), a.TotalAll(), a.Total("tx"))
	}
}

func TestTimeSeriesMergeMisalignedPanics(t *testing.T) {
	a := NewTimeSeries(origin, time.Hour)
	for _, other := range []*TimeSeries{
		NewTimeSeries(origin, 2*time.Hour),
		NewTimeSeries(origin.Add(time.Minute), time.Hour),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("misaligned merge did not panic")
				}
			}()
			a.Merge(other)
		}()
	}
	// A nil other is a harmless no-op, not a panic.
	a.Merge(nil)
}
