// Package serve is the online stats serving layer: it keeps every chain's
// deterministic figures queryable over HTTP while ingestion is still
// running. Readers never take a lock — they load an immutable Snapshot
// through an atomic pointer — and writers publish by building a fresh
// snapshot per merge epoch and swapping the pointer. The copy-on-write
// boundary is core.SummarizeEOS and friends: each holds its aggregator's
// lock just long enough to deep-copy the figures state, so ingest workers
// and the publish loop contend only on that one short critical section and
// queries contend on nothing at all.
//
// Ownership rules (see DESIGN.md "Serving layer & snapshot epochs"):
//
//   - A *Snapshot obtained from Current is immutable forever. Holding one
//     across any number of later epochs is safe and cheap; its renders stay
//     byte-identical no matter what ingestion does next.
//   - The Publisher owns the sources map; Register/Publish serialize on the
//     publisher mutex. Summarize hooks are called only under that mutex.
//   - Staleness is explicit, never hidden: every snapshot carries its epoch
//     and publish time, and every HTTP response forwards both plus its age.
package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ChainStatus is one chain's state inside a snapshot: the deep-copied
// summary, its pre-rendered figures section (rendered once at publish so N
// readers don't re-render N times), and whether the chain's feed has
// drained — i.e. the figures are final, not mid-crawl.
type ChainStatus struct {
	Summary core.ChainSummary
	Figures string
	Drained bool
	// Window is the aggregation anchor (series origin + bucket size) the
	// feed registered with — the same contract shard blobs carry, so a
	// snapshot consumer can tell which figures are comparable.
	Window core.Window
}

// Snapshot is one epoch's immutable view over every registered chain.
// Nothing in it aliases live aggregator state; treat it as read-only.
type Snapshot struct {
	// Epoch counts publishes monotonically from 1 (0 is the empty snapshot
	// a fresh publisher serves before the first publish).
	Epoch uint64
	// PublishedAt is when this snapshot was built — the reader's staleness
	// anchor.
	PublishedAt time.Time
	// Drained reports that at least one chain is registered and every
	// registered chain's feed has drained: the figures are final.
	Drained bool
	Chains  map[string]ChainStatus
}

// Names returns the registered chain names in sorted order.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.Chains))
	for name := range s.Chains {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RenderFigures concatenates every chain's figures section in sorted chain
// order — the same order cmd/report -replay prints per-chain archives
// discovered under one directory, so a drained snapshot's figures diff
// cleanly against a replay of the same blocks.
func (s *Snapshot) RenderFigures() string {
	var sb strings.Builder
	for _, name := range s.Names() {
		sb.WriteString(s.Chains[name].Figures)
	}
	return sb.String()
}

// Age reports how stale the snapshot is at the given instant.
func (s *Snapshot) Age(now time.Time) time.Duration { return now.Sub(s.PublishedAt) }

// source is one registered chain feed: a summarize hook (which must
// deep-copy under its own aggregator lock, as core.SummarizeEOS does) and
// the drained flag its release function flips.
type source struct {
	summarize func() core.ChainSummary
	window    core.Window
	drained   atomic.Bool
}

// Publisher owns the write side of the serving layer: feeds register
// summarize hooks, Publish folds them into a fresh immutable Snapshot, and
// Current hands the newest snapshot to readers without any locking.
type Publisher struct {
	// now is the staleness clock (time.Now outside tests).
	now func() time.Time

	mu      sync.Mutex
	sources map[string]*source

	cur atomic.Pointer[Snapshot]
}

// NewPublisher returns a publisher already serving an empty epoch-0
// snapshot, so readers never observe nil even before the first feed
// registers.
func NewPublisher() *Publisher {
	p := &Publisher{now: time.Now, sources: make(map[string]*source)}
	p.cur.Store(&Snapshot{PublishedAt: p.now(), Chains: map[string]ChainStatus{}})
	return p
}

// Register adds a chain feed. The summarize hook must be safe to call while
// the feed is ingesting and must return a summary that aliases no live
// state (core.SummarizeEOS/SummarizeTezos/SummarizeXRP via StatsKit qualify:
// they lock and deep-copy). The returned release function marks the feed
// drained and publishes a fresh epoch so the final figures become visible
// promptly; it is idempotent. Registering the same chain twice is an error
// — two feeds folding into one name would serve a meaningless mixture —
// and a duplicate with a different aggregation window is called out
// specifically: buckets anchored at different origins or sizes can never
// be merged or compared, so the snapshot would mix incomparable series.
func (p *Publisher) Register(chain string, w core.Window, summarize func() core.ChainSummary) (release func(), err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, dup := p.sources[chain]; dup {
		if !prev.window.Equal(w) {
			return nil, fmt.Errorf("serve: chain %q already registered with window %s; refusing feed with window %s — mixed-origin snapshots are meaningless", chain, prev.window, w)
		}
		return nil, fmt.Errorf("serve: chain %q already registered", chain)
	}
	src := &source{summarize: summarize, window: w}
	p.sources[chain] = src
	var once sync.Once
	return func() {
		once.Do(func() {
			src.drained.Store(true)
			p.Publish()
		})
	}, nil
}

// Publish builds the next epoch's snapshot from every registered source and
// swaps it in. It returns the published snapshot. Concurrent publishers
// serialize on the mutex; each still produces a distinct, monotonically
// numbered epoch.
func (p *Publisher) Publish() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	chains := make(map[string]ChainStatus, len(p.sources))
	drained := len(p.sources) > 0
	for name, src := range p.sources {
		sum := src.summarize()
		d := src.drained.Load()
		chains[name] = ChainStatus{Summary: sum, Figures: sum.Render(), Drained: d, Window: src.window}
		drained = drained && d
	}
	snap := &Snapshot{
		Epoch:       p.cur.Load().Epoch + 1,
		PublishedAt: p.now(),
		Drained:     drained,
		Chains:      chains,
	}
	p.cur.Store(snap)
	return snap
}

// Current returns the newest snapshot. It is the whole read path: one
// atomic load, no locks, safe from any number of goroutines.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// Drained reports whether the current snapshot's figures are final.
func (p *Publisher) Drained() bool { return p.Current().Drained }

// Run publishes on a fixed interval until ctx is cancelled, then publishes
// one final epoch — the drain barrier: callers cancel after their feeds
// return, so the last epoch is guaranteed to include everything ingested.
func (p *Publisher) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.Publish()
		case <-ctx.Done():
			p.Publish()
			return
		}
	}
}
