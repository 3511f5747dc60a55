package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
)

// span is one timed call across a layer boundary. Parent is the index of
// the span that caused it (-1 for a round), Round the traced round it
// belongs to. Spans are held in memory and written out only on -spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	// Wait marks a span that is mostly blocked on another goroutine's
	// work (a socket fetch): it is listed in the budget table but not
	// summed as busy time, or the server's encode would count twice.
	Wait bool `json:"wait,omitempty"`
}

// tracer records spans and counts from the decorators below. The repo's
// packages are not instrumented: every span is taken in bench/, around a
// call into a package's public surface.
//
// A nil *tracer is the untraced run: its wrap methods return their
// argument unchanged, so the untraced path runs no decorator at all.
type tracer struct {
	t0    time.Time
	round atomic.Int32

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, wait bool) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Round: t.round.Load(), Wait: wait})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a named count (operations, bytes, capacity).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// scope is the "span that caused it" for decorators that cannot be handed
// a parent per call: the round sets it as phases begin and end.
type scope struct{ id atomic.Int32 }

func newScope(id int32) *scope {
	s := &scope{}
	s.id.Store(id)
	return s
}

// ---- decorators --------------------------------------------------------

// fetcher wraps a collect.BlockFetcher so every FetchBlock is a span.
// It forwards RawRecycler: without it collect.Stream stops recycling
// payload buffers and the traced crawl is a different program.
func (t *tracer) fetcher(f collect.BlockFetcher, parent *scope, wait bool) collect.BlockFetcher {
	if t == nil {
		return f
	}
	return &tracedFetcher{inner: f, t: t, parent: parent, wait: wait}
}

type tracedFetcher struct {
	inner  collect.BlockFetcher
	t      *tracer
	parent *scope
	wait   bool
}

func (f *tracedFetcher) Head(ctx context.Context) (int64, error) { return f.inner.Head(ctx) }

func (f *tracedFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	id := f.t.begin("collect.fetch", f.parent.id.Load(), f.wait)
	raw, err := f.inner.FetchBlock(ctx, num)
	f.t.end(id)
	return raw, err
}

func (f *tracedFetcher) OwnsRaw() bool {
	rr, ok := f.inner.(collect.RawRecycler)
	return ok && rr.OwnsRaw()
}

// tee wraps a CrawlConfig.Tee hook. While an append runs, inner names it
// as the cause of whatever the archive writer puts to its store.
func (t *tracer) tee(fn func(int64, []byte) error, parent, inner *scope) func(int64, []byte) error {
	if t == nil {
		return fn
	}
	return func(num int64, raw []byte) error {
		id := t.begin("archive.append", parent.id.Load(), false)
		inner.id.Store(id)
		err := fn(num, raw)
		t.end(id)
		return err
	}
}

// fullDecoder is what every chain's production decoder implements; the
// traced decoder must implement all of it or core's ingest pool silently
// falls back to the locked, non-recycling path.
type fullDecoder interface {
	core.ShardedDecoder
	core.BatchReleaser
}

// decoder wraps a chain's core.Decoder: Decode is a wire.decode span,
// each shard IngestBatch a core.aggregate span, each shard Merge a
// core.merge span.
func (t *tracer) decoder(d core.Decoder, chainName string, parent *scope) (core.Decoder, error) {
	if t == nil {
		return d, nil
	}
	full, ok := d.(fullDecoder)
	if !ok {
		return nil, fmt.Errorf("bench: %s decoder %T is not a ShardedDecoder + BatchReleaser; tracing it would change the ingest path", chainName, d)
	}
	return &tracedDecoder{inner: full, t: t, parent: parent,
		decodeName: "wire.decode." + chainName, aggName: "core.aggregate." + chainName}, nil
}

type tracedDecoder struct {
	inner               fullDecoder
	t                   *tracer
	parent              *scope
	decodeName, aggName string
}

func (d *tracedDecoder) Decode(num int64, raw []byte) (any, error) {
	id := d.t.begin(d.decodeName, d.parent.id.Load(), false)
	v, err := d.inner.Decode(num, raw)
	d.t.end(id)
	return v, err
}

func (d *tracedDecoder) IngestBatch(batch []any) error {
	id := d.t.begin(d.aggName, d.parent.id.Load(), false)
	err := d.inner.IngestBatch(batch)
	d.t.end(id)
	return err
}

func (d *tracedDecoder) ReleaseBatch(batch []any) { d.inner.ReleaseBatch(batch) }

func (d *tracedDecoder) NewShard() core.Shard {
	return &tracedShard{inner: d.inner.NewShard(), d: d}
}

type tracedShard struct {
	inner core.Shard
	d     *tracedDecoder
}

func (s *tracedShard) IngestBatch(batch []any) error {
	id := s.d.t.begin(s.d.aggName, s.d.parent.id.Load(), false)
	err := s.inner.IngestBatch(batch)
	s.d.t.end(id)
	return err
}

func (s *tracedShard) Merge() {
	id := s.d.t.begin("core.merge", s.d.parent.id.Load(), false)
	s.inner.Merge()
	s.d.t.end(id)
}

// keyClass sorts blob keys by who writes them.
func keyClass(key string) string {
	switch {
	case strings.HasPrefix(key, "lease/"):
		return "lease"
	case strings.HasPrefix(key, "run/"):
		return "runstate"
	case strings.HasPrefix(key, "ckpt/"):
		return "ckpt"
	case strings.HasSuffix(key, ".shard"):
		return "shard"
	default:
		return "archive"
	}
}

// store wraps a blobstore.Store: every operation is a blobstore.<class>
// span and bumps per-class operation and byte counts.
func (t *tracer) store(st blobstore.Store, parent *scope) blobstore.Store {
	if t == nil {
		return st
	}
	return &tracedStore{inner: st, t: t, parent: parent}
}

type tracedStore struct {
	inner  blobstore.Store
	t      *tracer
	parent *scope
}

func (s *tracedStore) op(op, key string, bytes int) func() {
	class := keyClass(key)
	id := s.t.begin("blobstore."+class, s.parent.id.Load(), false)
	s.t.add("blobstore.ops."+class, 1)
	s.t.add("blobstore."+op, 1)
	if op == blobstore.OpPut {
		s.t.add("blobstore.put_bytes", float64(bytes))
		s.t.add("blobstore.put_bytes."+class, float64(bytes))
		s.t.add("blobstore.puts."+class, 1)
	}
	return func() { s.t.end(id) }
}

func (s *tracedStore) Put(ctx context.Context, key string, data []byte) error {
	defer s.op(blobstore.OpPut, key, len(data))()
	return s.inner.Put(ctx, key, data)
}

func (s *tracedStore) Get(ctx context.Context, key string) ([]byte, error) {
	defer s.op(blobstore.OpGet, key, 0)()
	return s.inner.Get(ctx, key)
}

func (s *tracedStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	defer s.op(blobstore.OpGetRange, key, 0)()
	return s.inner.GetRange(ctx, key, off, n)
}

func (s *tracedStore) List(ctx context.Context, prefix string) ([]string, error) {
	defer s.op(blobstore.OpList, prefix, 0)()
	return s.inner.List(ctx, prefix)
}

func (s *tracedStore) Stat(ctx context.Context, key string) (int64, error) {
	defer s.op(blobstore.OpStat, key, 0)()
	return s.inner.Stat(ctx, key)
}

func (s *tracedStore) Delete(ctx context.Context, key string) error {
	defer s.op(blobstore.OpDelete, key, 0)()
	return s.inner.Delete(ctx, key)
}

func (s *tracedStore) URL() string { return s.inner.URL() }

// handler wraps an http.Handler so every request that arrives while
// parent names a span (a traced round's measured phase) is a span. A
// server can outlive rounds — query's does — so outside a traced round
// parent holds -1 and the request passes through unrecorded.
func (t *tracer) handler(h http.Handler, name string, parent *scope) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := parent.id.Load()
		if p < 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(name, p, false)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// ---- reading the trace -------------------------------------------------

// layerTime is one layer's share of the traced rounds.
type layerTime struct {
	name      string
	spans     int
	total     time.Duration // sum of span durations
	self      time.Duration // total minus the time covered by child spans
	wait      bool
	container bool // a round or phase container, not a layer
}

// structural reports whether a span name is a container the benchmark
// opens around a phase. A container's self time is what no layer
// claimed: it is the unattributed remainder, not a layer.
func structural(name string) bool {
	return name == "round" || strings.HasPrefix(name, "phase.")
}

// layers folds the spans into per-layer totals. A layer's self time is
// the sum over its spans of the span's duration minus its direct
// children's durations (floored at zero: children on other goroutines
// can overlap each other). speed maps a round to 1 ÷ its slowdown (see
// kernelReading.slowdown); every span of that round is scaled by it, so the
// totals are at reference speed like the end-to-end metrics. A round speed
// does not name (or a nil map) is taken as it was recorded.
func (t *tracer) layers(speed map[int32]float64) []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range spans {
		if f, ok := speed[spans[i].Round]; ok {
			s := &spans[i]
			s.Start, s.End = int64(float64(s.Start)*f), int64(float64(s.End)*f)
		}
	}
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End > s.Start {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		l := by[s.Name]
		if l == nil {
			l = &layerTime{name: s.Name, wait: s.Wait, container: structural(s.Name)}
			by[s.Name] = l
		}
		d := s.End - s.Start
		l.spans++
		l.total += time.Duration(d)
		if self := d - childTime[i]; self > 0 {
			l.self += time.Duration(self)
		}
	}
	out := make([]layerTime, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// budget summarizes the traced rounds, at reference speed (see layers):
// wall is their summed duration, workers the number of CPUs they could
// use. busy is the summed self time of every non-waiting, non-structural
// layer; what is left of wall × workers is unattributed (scheduler, GC,
// HTTP plumbing, channel hops, idle CPUs). The share can be negative when
// more goroutines are runnable than CPUs, because a descheduled
// goroutine's span keeps running.
type budget struct {
	layers       []layerTime
	wall         time.Duration
	workers      int
	busy         time.Duration
	unattributed float64 // share of wall × workers
}

func (t *tracer) budget(workers int, speed map[int32]float64) budget {
	b := budget{layers: t.layers(speed), workers: workers}
	for _, l := range b.layers {
		switch {
		case l.name == "round":
			b.wall = l.total
		case l.container || l.wait:
		default:
			b.busy += l.self
		}
	}
	if capacity := float64(b.wall) * float64(workers); capacity > 0 {
		b.unattributed = 1 - float64(b.busy)/capacity
	}
	return b
}

// layer returns one layer's totals (zero when it never ran).
func (b budget) layer(name string) layerTime {
	for _, l := range b.layers {
		if l.name == name {
			return l
		}
	}
	return layerTime{name: name}
}

// prefixTotal sums total time and spans over layers whose name starts
// with prefix.
func (b budget) prefixTotal(prefix string) (time.Duration, int) {
	var d time.Duration
	var n int
	for _, l := range b.layers {
		if strings.HasPrefix(l.name, prefix) {
			d += l.total
			n += l.spans
		}
	}
	return d, n
}

// write prints the budget table.
func (b budget) write(w io.Writer, rounds int) {
	if rounds == 0 || b.wall == 0 {
		fmt.Fprintln(w, "budget: no traced rounds")
		return
	}
	capacity := float64(b.wall) * float64(b.workers)
	fmt.Fprintf(w, "per-layer budget at reference speed: %d traced rounds, wall %.1f ms/round × %d workers\n",
		rounds, b.wall.Seconds()*1e3/float64(rounds), b.workers)
	fmt.Fprintf(w, "  %-28s %9s %12s %12s %8s\n", "layer", "spans/rd", "total ms/rd", "self ms/rd", "share")
	row := func(name string, spans int, total, self time.Duration, note string) {
		fmt.Fprintf(w, "  %-28s %9.1f %12.3f %12.3f %7.2f%%%s\n", name,
			float64(spans)/float64(rounds), total.Seconds()*1e3/float64(rounds),
			self.Seconds()*1e3/float64(rounds), 100*float64(self)/capacity, note)
	}
	for _, l := range b.layers {
		switch {
		case l.container:
		case l.wait:
			row(l.name, l.spans, l.total, l.self, "  (waiting, not summed)")
		default:
			row(l.name, l.spans, l.total, l.self, "")
		}
	}
	fmt.Fprintf(w, "  %-28s %9s %12s %12.3f %7.2f%%\n", "unattributed", "", "",
		(capacity-float64(b.busy))/1e6/float64(rounds), 100*b.unattributed)
	fmt.Fprintf(w, "  %-28s %9s %12s %12.3f %7.2f%%\n", "wall × workers", "", "", capacity/1e6/float64(rounds), 100.0)
}

// writeSpans dumps every span as one JSON document per line.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}
