// Package stats provides the small statistical toolkit the measurement
// pipeline relies on: time-bucketed counters (the paper plots throughput per
// six hours) and their sparklines, percentiles and gzip storage accounting.
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// TimeSeries accumulates counts into fixed-width time buckets aligned to the
// series origin. The paper's Figure 3 uses 6-hour buckets over the three
// month observation window.
type TimeSeries struct {
	origin time.Time
	width  time.Duration
	// labels is the series' label table, in first-seen order; a cell names
	// its label by index into it, and index finds a label's entry. A label
	// is in the table only once some cell holds it, so one series can carry
	// several stacked categories (e.g. Payment / OfferCreate / Others).
	labels []string
	index  map[string]int
	// cells maps (bucket, label) to its count: adding into a cell that
	// exists allocates nothing, and a series grows by cells, not by
	// buckets.
	cells map[cell]int64
	// maxBucket is the highest bucket any cell has, -1 while there is none.
	maxBucket int
}

// cell is one (bucket, label index) counter of a series.
type cell struct{ bucket, label int }

// smallLabels is how many labels the methods that map label indexes
// (Merge, AppendEntries) handle in arrays on their stack; a series with more
// allocates one table per call.
const smallLabels = 16

// NewTimeSeries creates a series with buckets of the given width starting at
// origin. Width must be positive.
func NewTimeSeries(origin time.Time, width time.Duration) *TimeSeries {
	if width <= 0 {
		panic(fmt.Sprintf("stats: non-positive bucket width %v", width))
	}
	return &TimeSeries{
		origin:    origin,
		width:     width,
		index:     make(map[string]int),
		cells:     make(map[cell]int64),
		maxBucket: -1,
	}
}

// Add increments label's counter in the bucket containing ts by n.
// Timestamps before the origin land in bucket 0.
func (s *TimeSeries) Add(ts time.Time, label string, n int64) {
	s.AddBucket(s.BucketIndex(ts), label, n)
}

// label returns name's index in the label table, adding it on first use.
func (s *TimeSeries) label(name string) int {
	l, ok := s.index[name]
	if !ok {
		l = len(s.labels)
		s.labels = append(s.labels, name)
		s.index[name] = l
	}
	return l
}

// add increments cell (i, l), i already clamped.
func (s *TimeSeries) add(i, l int, n int64) {
	s.cells[cell{i, l}] += n
	s.maxBucket = max(s.maxBucket, i)
}

// Origin returns the series anchor time.
func (s *TimeSeries) Origin() time.Time { return s.origin }

// Width returns the bucket width.
func (s *TimeSeries) Width() time.Duration { return s.width }

// Merge folds other's cells into s. Both series must share the same
// origin and bucket width — bucket indexes are only comparable relative to
// a common anchor — and Merge panics otherwise, like NewTimeSeries panics
// on a non-positive width: a mismatch is a programming error, not a data
// condition. Addition is commutative, so merging shards in any order
// yields the same counts (the property the sharded aggregators rely on).
func (s *TimeSeries) Merge(other *TimeSeries) {
	if other == nil {
		return
	}
	if !s.origin.Equal(other.origin) || s.width != other.width {
		panic(fmt.Sprintf("stats: merging misaligned series (origin %v/%v, width %v/%v)",
			s.origin, other.origin, s.width, other.width))
	}
	// Translate other's label indexes into s's once, then add cell by cell.
	var buf [smallLabels]int
	to := buf[:0]
	if len(other.labels) > len(buf) {
		to = make([]int, 0, len(other.labels))
	}
	for _, label := range other.labels {
		to = append(to, s.label(label))
	}
	for c, n := range other.cells {
		s.add(c.bucket, to[c.label], n)
	}
}

// BucketIndex returns the bucket index for ts (clamped at zero).
func (s *TimeSeries) BucketIndex(ts time.Time) int {
	d := ts.Sub(s.origin)
	if d < 0 {
		return 0
	}
	return int(d / s.width)
}

// BucketStart returns the start time of bucket i.
func (s *TimeSeries) BucketStart(i int) time.Time {
	return s.origin.Add(time.Duration(i) * s.width)
}

// Labels returns the sorted set of labels seen by the series.
func (s *TimeSeries) Labels() []string {
	return slices.Sorted(slices.Values(s.labels))
}

// MaxBucket returns the highest populated bucket index, or -1 when empty.
func (s *TimeSeries) MaxBucket() int { return s.maxBucket }

// Total returns the sum of label across all buckets.
func (s *TimeSeries) Total(label string) int64 {
	l, ok := s.index[label]
	if !ok {
		return 0
	}
	var t int64
	for c, n := range s.cells {
		if c.label == l {
			t += n
		}
	}
	return t
}

// AddBucket increments label's counter in bucket i directly, bypassing the
// time-to-bucket mapping — the entry point for decoding a serialized
// series, where the bucket index itself was transferred. Negative indexes
// clamp to 0 like pre-origin timestamps in Add.
func (s *TimeSeries) AddBucket(i int, label string, n int64) {
	s.add(max(i, 0), s.label(label), n)
}

// Entry is one populated (bucket, label) cell of a series.
type Entry struct {
	Bucket int
	Label  string
	Count  int64
}

// AppendEntries appends the populated cells to dst sorted by bucket then
// label — the deterministic flat form the shard codec serializes — and
// returns the extended slice. Zero-count cells are skipped; they are
// indistinguishable from absent ones after a merge.
func (s *TimeSeries) AppendEntries(dst []Entry) []Entry {
	var buf [2 * smallLabels]int
	order, rank := s.ranks(buf[:])
	n := len(dst)
	for c, v := range s.cells {
		if v != 0 {
			// Count holds the cell's label rank until the sort is done.
			dst = append(dst, Entry{Bucket: c.bucket, Count: int64(rank[c.label])})
		}
	}
	cells := dst[n:]
	slices.SortFunc(cells, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Bucket, b.Bucket), cmp.Compare(a.Count, b.Count))
	})
	for i := range cells {
		l := order[cells[i].Count]
		cells[i].Label, cells[i].Count = s.labels[l], s.cells[cell{cells[i].Bucket, l}]
	}
	return dst
}

// ranks returns the label indexes in label order, and each index's rank in
// that order, in buf's storage when the table fits in it.
func (s *TimeSeries) ranks(buf []int) (order, rank []int) {
	n := len(s.labels)
	if 2*n > len(buf) {
		buf = make([]int, 2*n)
	}
	order, rank = buf[:n], buf[n:2*n]
	for l := range order {
		order[l] = l
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(s.labels[a], s.labels[b]) })
	for r, l := range order {
		rank[l] = r
	}
	return order, rank
}

// Sparkline renders label's count in each bucket 0..MaxBucket() as one
// character, its height proportional to the count, so a gap bucket draws
// as the lowest mark ("(empty)" for an empty series). It spreads the
// label's cells over one dense slice, then makes one pass for the peak and
// one to draw.
func (s *TimeSeries) Sparkline(label string) string {
	n := s.maxBucket + 1
	if n == 0 {
		return "(empty)"
	}
	counts := make([]int64, n)
	if l, ok := s.index[label]; ok {
		for c, v := range s.cells {
			if c.label == l {
				counts[c.bucket] = v
			}
		}
	}
	var peak int64 = 1
	for _, v := range counts {
		peak = max(peak, v)
	}
	marks := []rune(" .:-=+*#%@")
	line := make([]rune, n)
	for i, v := range counts {
		// A negative count, or one whose scaling overflows, clamps to an end
		// of the scale instead of indexing outside it.
		line[i] = marks[min(max(v*int64(len(marks)-1)/peak, 0), int64(len(marks)-1))]
	}
	return string(line)
}
