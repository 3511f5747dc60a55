// Package stats provides the small statistical toolkit the measurement
// pipeline relies on: time-bucketed counters (the paper plots throughput per
// six hours), streaming moments, percentiles and gzip storage accounting.
package stats

import (
	"fmt"
	"sort"
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
	buckets map[int]map[string]int64
	labels  map[string]struct{}
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
		labels:  make(map[string]struct{}),
	}
}

// Add increments label's counter in the bucket containing ts by n.
// Timestamps before the origin land in bucket 0.
func (s *TimeSeries) Add(ts time.Time, label string, n int64) {
	i := s.BucketIndex(ts)
	b := s.buckets[i]
	if b == nil {
		b = make(map[string]int64)
		s.buckets[i] = b
	}
	b[label] += n
	s.labels[label] = struct{}{}
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
		b := s.buckets[i]
		if b == nil {
			b = make(map[string]int64, len(ob))
			s.buckets[i] = b
		}
		for label, n := range ob {
			b[label] += n
		}
	}
	for l := range other.labels {
		s.labels[l] = struct{}{}
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
	out := make([]string, 0, len(s.labels))
	for l := range s.labels {
		out = append(out, l)
	}
	sort.Strings(out)
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

// Value returns label's count in bucket i.
func (s *TimeSeries) Value(i int, label string) int64 {
	return s.buckets[i][label]
}

// Total returns the sum of label across all buckets.
func (s *TimeSeries) Total(label string) int64 {
	var t int64
	for _, b := range s.buckets {
		t += b[label]
	}
	return t
}

// TotalAll returns the sum of every label across all buckets.
func (s *TimeSeries) TotalAll() int64 {
	var t int64
	for _, b := range s.buckets {
		for _, v := range b {
			t += v
		}
	}
	return t
}

// AddBucket increments label's counter in bucket i directly, bypassing the
// time-to-bucket mapping — the entry point for decoding a serialized
// series, where the bucket index itself was transferred. Negative indexes
// clamp to 0 like pre-origin timestamps in Add.
func (s *TimeSeries) AddBucket(i int, label string, n int64) {
	if i < 0 {
		i = 0
	}
	b := s.buckets[i]
	if b == nil {
		b = make(map[string]int64)
		s.buckets[i] = b
	}
	b[label] += n
	s.labels[label] = struct{}{}
}

// Entry is one populated (bucket, label) cell of a series.
type Entry struct {
	Bucket int
	Label  string
	Count  int64
}

// Entries materializes the populated cells sorted by bucket then label —
// the deterministic flat form the shard codec serializes. Zero-count cells
// are skipped; they are indistinguishable from absent ones after a merge.
func (s *TimeSeries) Entries() []Entry {
	var out []Entry
	for i, b := range s.buckets {
		for label, n := range b {
			if n != 0 {
				out = append(out, Entry{Bucket: i, Label: label, Count: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bucket != out[j].Bucket {
			return out[i].Bucket < out[j].Bucket
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Row is one rendered bucket of a time series.
type Row struct {
	Start  time.Time
	Counts map[string]int64
}

// Rows materializes the series in chronological order, including empty
// buckets between populated ones so plots have a continuous x-axis.
func (s *TimeSeries) Rows() []Row {
	max := s.MaxBucket()
	if max < 0 {
		return nil
	}
	rows := make([]Row, max+1)
	for i := 0; i <= max; i++ {
		counts := make(map[string]int64, len(s.labels))
		for l := range s.labels {
			counts[l] = s.buckets[i][l]
		}
		rows[i] = Row{Start: s.BucketStart(i), Counts: counts}
	}
	return rows
}
