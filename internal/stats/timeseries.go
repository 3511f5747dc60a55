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
	// buckets maps bucket index -> label -> count, so one series can carry
	// several stacked categories (e.g. Payment / OfferCreate / Others).
	// The labels a series has seen are the keys of these maps.
	buckets map[int]map[string]int64
	// last and lastIdx remember the bucket Add wrote last: blocks arrive
	// in time order, so most Adds land in it.
	last    map[string]int64
	lastIdx int
}

// NewTimeSeries creates a series with buckets of the given width starting at
// origin. Width must be positive.
func NewTimeSeries(origin time.Time, width time.Duration) *TimeSeries {
	if width <= 0 {
		panic(fmt.Sprintf("stats: non-positive bucket width %v", width))
	}
	return &TimeSeries{
		origin:  origin,
		width:   width,
		buckets: make(map[int]map[string]int64),
	}
}

// Add increments label's counter in the bucket containing ts by n.
// Timestamps before the origin land in bucket 0.
func (s *TimeSeries) Add(ts time.Time, label string, n int64) {
	s.AddBucket(s.BucketIndex(ts), label, n)
}

// bucket returns bucket i's counters, creating them on first use.
func (s *TimeSeries) bucket(i int) map[string]int64 {
	if s.last != nil && s.lastIdx == i {
		return s.last
	}
	b := s.buckets[i]
	if b == nil {
		b = make(map[string]int64)
		s.buckets[i] = b
	}
	s.last, s.lastIdx = b, i
	return b
}

// Origin returns the series anchor time.
func (s *TimeSeries) Origin() time.Time { return s.origin }

// Width returns the bucket width.
func (s *TimeSeries) Width() time.Duration { return s.width }

// Merge folds other's buckets into s. Both series must share the same
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
	for i, ob := range other.buckets {
		b := s.bucket(i)
		for label, n := range ob {
			b[label] += n
		}
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
	seen := make(map[string]struct{})
	for _, b := range s.buckets {
		for l := range b {
			seen[l] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// MaxBucket returns the highest populated bucket index, or -1 when empty.
func (s *TimeSeries) MaxBucket() int {
	max := -1
	for i := range s.buckets {
		if i > max {
			max = i
		}
	}
	return max
}

// Total returns the sum of label across all buckets.
func (s *TimeSeries) Total(label string) int64 {
	var t int64
	for _, b := range s.buckets {
		t += b[label]
	}
	return t
}

// AddBucket increments label's counter in bucket i directly, bypassing the
// time-to-bucket mapping — the entry point for decoding a serialized
// series, where the bucket index itself was transferred. Negative indexes
// clamp to 0 like pre-origin timestamps in Add.
func (s *TimeSeries) AddBucket(i int, label string, n int64) {
	s.bucket(max(i, 0))[label] += n
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
	n := len(dst)
	for i, b := range s.buckets {
		for label, c := range b {
			if c != 0 {
				dst = append(dst, Entry{Bucket: i, Label: label, Count: c})
			}
		}
	}
	slices.SortFunc(dst[n:], func(a, b Entry) int {
		if a.Bucket != b.Bucket {
			return cmp.Compare(a.Bucket, b.Bucket)
		}
		return strings.Compare(a.Label, b.Label)
	})
	return dst
}

// Sparkline renders label's count in each bucket 0..MaxBucket() as one
// character, its height proportional to the count, so a gap bucket draws
// as the lowest mark ("(empty)" for an empty series). It reads the buckets
// in place: one pass for the peak, one to draw.
func (s *TimeSeries) Sparkline(label string) string {
	n := s.MaxBucket() + 1
	if n == 0 {
		return "(empty)"
	}
	var peak int64 = 1
	for i := range n {
		peak = max(peak, s.buckets[i][label])
	}
	marks := []rune(" .:-=+*#%@")
	line := make([]rune, n)
	for i := range line {
		// A negative count, or one whose scaling overflows, clamps to an end
		// of the scale instead of indexing outside it.
		line[i] = marks[min(max(s.buckets[i][label]*int64(len(marks)-1)/peak, 0), int64(len(marks)-1))]
	}
	return string(line)
}
