package stats

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

var origin = time.Date(2019, time.October, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesBucketing(t *testing.T) {
	s := NewTimeSeries(origin, 6*time.Hour)
	s.Add(origin, "tx", 1)
	s.Add(origin.Add(5*time.Hour+59*time.Minute), "tx", 1)
	s.Add(origin.Add(6*time.Hour), "tx", 1)
	s.Add(origin.Add(30*time.Hour), "endorsement", 4)

	want := []Entry{{Bucket: 0, Label: "tx", Count: 2}, {Bucket: 1, Label: "tx", Count: 1}, {Bucket: 5, Label: "endorsement", Count: 4}}
	if got := s.AppendEntries(nil); !slices.Equal(got, want) {
		t.Fatalf("cells = %+v, want %+v", got, want)
	}
	if got := s.Total("tx"); got != 3 {
		t.Fatalf("total tx = %d", got)
	}
	if got := TotalValues(s); !slices.Equal(got, []int64{2, 1, 0, 0, 0, 4}) {
		t.Fatalf("bucket totals = %v", got)
	}
}

// TestSparklineContinuousAxis: a sparkline draws one mark per bucket from 0
// to the last populated one, gaps and buckets the label never reached as
// the lowest mark, its peak as the highest.
func TestSparklineContinuousAxis(t *testing.T) {
	s := NewTimeSeries(origin, time.Hour)
	if got := s.Sparkline("a"); got != "(empty)" {
		t.Fatalf("empty series drew %q", got)
	}
	s.Add(origin, "a", 1)
	s.Add(origin.Add(4*time.Hour), "a", 9)
	s.Add(origin.Add(2*time.Hour), "b", 3)
	s.Add(origin.Add(3*time.Hour), "b", -3)
	for label, want := range map[string]string{
		"a":    ".   @",
		"b":    "  @  ", // a negative count clamps to the lowest mark
		"none": "     ",
	} {
		if got := s.Sparkline(label); got != want {
			t.Errorf("Sparkline(%q) = %q, want %q", label, got, want)
		}
	}
	if !s.BucketStart(4).Equal(origin.Add(4 * time.Hour)) {
		t.Fatalf("bucket 4 starts %v", s.BucketStart(4))
	}
}

// TestTotalValuesMatchesDenseSum: over random series — empty, bucket 0
// only, gapped, and with pre-origin adds that clamp to bucket 0 — the
// totals equal a dense walk over every add, and computing them takes one
// allocation however many buckets the series spans.
func TestTotalValuesMatchesDenseSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := range 200 {
		s := NewTimeSeries(origin, time.Hour)
		sums := map[int]int64{}
		last := -1
		var adds, spread, below int
		switch trial % 4 {
		case 0: // empty
		case 1: // bucket 0 only
			adds, spread = 1+rng.IntN(20), 1
		case 2: // gapped
			adds, spread = 1+rng.IntN(20), 1+rng.IntN(100)
		case 3: // pre-origin adds clamp to bucket 0
			adds, spread, below = 1+rng.IntN(20), 1+rng.IntN(20), 3
		}
		for range adds {
			b := rng.IntN(spread+below) - below
			n := rng.Int64N(1000) - 100
			s.Add(origin.Add(time.Duration(b)*time.Hour+time.Duration(rng.Int64N(int64(time.Hour)))), fmt.Sprint("l", rng.IntN(3)), n)
			sums[max(b, 0)] += n
			last = max(last, b, 0)
		}
		want := make([]int64, last+1)
		for i := range want {
			want[i] = sums[i]
		}
		if got := TotalValues(s); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TotalValues = %v, want %v", trial, got, want)
		}
	}
	if testkit.Race {
		return // the race detector's instrumentation allocates
	}
	for _, buckets := range []int{1, 1_000} {
		s := NewTimeSeries(origin, time.Hour)
		for i := range buckets {
			s.Add(origin.Add(time.Duration(i)*time.Hour), "a", 1)
			s.Add(origin.Add(time.Duration(i)*time.Hour), "b", 2)
		}
		if allocs := testing.AllocsPerRun(20, func() { TotalValues(s) }); allocs != 1 {
			t.Errorf("TotalValues over %d buckets: %.1f allocs, want 1", buckets, allocs)
		}
	}
}

// seriesModel is the reference a TimeSeries must agree with: bucket ->
// label -> count, each add landing in its clamped bucket.
type seriesModel map[int]map[string]int64

func (m seriesModel) add(i int, label string, n int64) {
	i = max(i, 0)
	if m[i] == nil {
		m[i] = map[string]int64{}
	}
	m[i][label] += n
}

func (m seriesModel) maxBucket() int {
	top := -1
	for i := range m {
		top = max(top, i)
	}
	return top
}

// check compares every read of s against the model.
func (m seriesModel) check(t *testing.T, s *TimeSeries) {
	t.Helper()
	var entries []Entry
	labels := map[string]bool{}
	for i, b := range m {
		for l, n := range b {
			labels[l] = true
			if n != 0 {
				entries = append(entries, Entry{Bucket: i, Label: l, Count: n})
			}
		}
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Bucket, b.Bucket), strings.Compare(a.Label, b.Label))
	})
	if got := s.AppendEntries([]Entry{{Label: "kept"}}); !slices.Equal(got[1:], entries) || got[0].Label != "kept" {
		t.Fatalf("AppendEntries = %v, want %v after the kept entry", got, entries)
	}
	top := m.maxBucket()
	if got := s.MaxBucket(); got != top {
		t.Fatalf("MaxBucket = %d, want %d", got, top)
	}
	totals := make([]int64, top+1)
	for i, b := range m {
		for _, n := range b {
			totals[i] += n
		}
	}
	if got := TotalValues(s); !slices.Equal(got, totals) {
		t.Fatalf("TotalValues = %v, want %v", got, totals)
	}
	want := slices.Sorted(maps.Keys(labels))
	if got := s.Labels(); !slices.Equal(got, want) {
		t.Fatalf("Labels = %q, want %q", got, want)
	}
	for _, l := range append(want, "absent") {
		var total int64
		marks := []rune(" .:-=+*#%@")
		var peak int64 = 1
		for i := 0; i <= top; i++ {
			total += m[i][l]
			peak = max(peak, m[i][l])
		}
		line := "(empty)"
		if top >= 0 {
			var sb strings.Builder
			for i := 0; i <= top; i++ {
				level := m[i][l] * 9 / peak
				sb.WriteRune(marks[min(max(level, 0), 9)])
			}
			line = sb.String()
		}
		if got := s.Total(l); got != total {
			t.Fatalf("Total(%q) = %d, want %d", l, got, total)
		}
		if got := s.Sparkline(l); got != line {
			t.Fatalf("Sparkline(%q) = %q, want %q", l, got, line)
		}
	}
}

// TestTimeSeriesMatchesModel drives random Add, AddBucket and Merge
// sequences — gapped buckets, pre-origin times and negative indexes that
// clamp to bucket 0, zero counts, 1 to 40 labels first seen in an order
// other than their sorted one — through a series and a map-of-maps model,
// and compares every read after each trial.
func TestTimeSeriesMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const width = time.Hour
	// grow applies n random adds to s and m over the given labels.
	grow := func(s *TimeSeries, m seriesModel, labels []string, n, spread int) {
		for range n {
			i := rng.IntN(spread+3) - 3
			l := labels[rng.IntN(len(labels))]
			var c int64
			if rng.IntN(4) != 0 {
				c = rng.Int64N(1000) - 50
			}
			if rng.IntN(2) == 0 {
				s.AddBucket(i, l, c)
			} else {
				s.Add(origin.Add(time.Duration(i)*width+time.Duration(rng.Int64N(int64(width)))), l, c)
			}
			m.add(i, l, c)
		}
	}
	for trial := range 300 {
		labels := make([]string, 1+rng.IntN(40))
		for i := range labels {
			labels[i] = fmt.Sprintf("%c%d", 'a'+rng.IntN(26), i)
		}
		s, m := NewTimeSeries(origin, width), seriesModel{}
		m.check(t, s)
		spread := 1 + rng.IntN(60)
		for range rng.IntN(4) {
			grow(s, m, labels, rng.IntN(40), spread)
			other, om := NewTimeSeries(origin, width), seriesModel{}
			// The other series sees some labels s has and some it lacks.
			lo := rng.IntN(len(labels))
			grow(other, om, labels[lo:], rng.IntN(60), 1+rng.IntN(80))
			before := other.AppendEntries(nil)
			s.Merge(other)
			for i, b := range om {
				for l, n := range b {
					m.add(i, l, n)
				}
			}
			if after := other.AppendEntries(nil); !slices.Equal(before, after) {
				t.Fatalf("trial %d: Merge changed its source", trial)
			}
		}
		m.check(t, s)
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
	want := []Entry{{Bucket: 0, Label: "tx", Count: 5}, {Bucket: 1, Label: "other", Count: 5}, {Bucket: 2, Label: "tx", Count: 1}}
	if got := a.AppendEntries(nil); !slices.Equal(got, want) {
		t.Fatalf("merged cells = %+v, want %+v", got, want)
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
	if got := c.AppendEntries(nil); !slices.Equal(got, want) {
		t.Fatalf("merge order changed the cells: %+v vs %+v", got, want)
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
