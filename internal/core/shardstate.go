package core

import (
	"fmt"
	"io"
	"time"
)

// Window is a shard's time-series geometry: the origin its buckets anchor
// to and the bucket width. Two shards merge only when their windows are
// equal — bucket indexes are meaningless across different anchors.
type Window struct {
	Origin time.Time
	Bucket time.Duration
}

// Equal reports whether two windows describe the same bucket grid.
func (w Window) Equal(o Window) bool {
	return w.Origin.Equal(o.Origin) && w.Bucket == o.Bucket
}

func (w Window) String() string {
	return fmt.Sprintf("%s/%s", w.Origin.UTC().Format(time.RFC3339), w.Bucket)
}

// BlockRange is the contiguous block range a shard covers, inclusive on
// both ends. The zero value means "unknown" — an in-process shard that was
// never told its partition.
type BlockRange struct {
	From, To int64
}

// Known reports whether the range was set to a valid partition.
func (r BlockRange) Known() bool { return r.From > 0 && r.To >= r.From }

// Overlaps reports whether two known ranges share any block.
func (r BlockRange) Overlaps(o BlockRange) bool {
	return r.Known() && o.Known() && r.From <= o.To && o.From <= r.To
}

// Union returns the smallest range covering both.
func (r BlockRange) Union(o BlockRange) BlockRange {
	switch {
	case !r.Known():
		return o
	case !o.Known():
		return r
	}
	if o.From < r.From {
		r.From = o.From
	}
	if o.To > r.To {
		r.To = o.To
	}
	return r
}

func (r BlockRange) String() string {
	if !r.Known() {
		return "(unknown)"
	}
	return fmt.Sprintf("[%d, %d]", r.From, r.To)
}

// ShardState is the one contract every chain's mergeable aggregate state
// implements — *EOSShard, *TezosShard and *XRPShard all satisfy it — and
// the only surface the distributed layer (shard codec, the coord worker,
// cmd/merge) and the ingest pool consume. A fourth chain
// plugs into crawling, replay, serving and distributed merge by
// implementing it once.
//
// A ShardState is single-owner: exactly one goroutine may touch it between
// creation and Merge. Every statistic it keeps is order-independent, so
// any partition of blocks across any number of shards, merged in any
// order, renders the same Summary — the invariant that makes a 3-way
// distributed crawl byte-identical to a single-process one.
type ShardState interface {
	// Chain names the chain ("eos", "tezos", "xrp") as archive manifests
	// and -chain flags spell it.
	Chain() string
	// Window returns the time-series geometry the state was built with.
	Window() Window
	// Covered returns the block range this state aggregated, when known.
	Covered() BlockRange
	// SetCovered records the block range, so an emitted shard carries its
	// partition and the merge coordinator can refuse gaps and overlaps.
	SetCovered(BlockRange)
	// IngestBatch folds a batch of decoded blocks (the Decoder.Decode
	// output type for this chain) into the state — no locking; the owner
	// is the only writer. A malformed element fails the whole batch
	// without ingesting any of it.
	IngestBatch(batch []any) error
	// Merge folds src into the receiver and resets src (so a stale alias
	// cannot double-merge). It refuses cross-chain sources, mismatched
	// windows and overlapping covered ranges.
	Merge(src ShardState) error
	// Summary captures the deterministic figures footprint. Nothing in the
	// returned summary aliases live state.
	Summary() ChainSummary
	// EncodeTo writes the state as a sealed, versioned, checksummed shard
	// blob stamped with the lease fence token, 0 for unfenced (see
	// internal/wire shard codec).
	EncodeTo(w io.Writer, fence uint64) error
	// DecodeFrom replaces the state with a blob's contents. Any structural
	// damage — truncation, bit flips, another version, another chain's
	// blob — is an error, never a panic or a silent partial decode.
	DecodeFrom(r io.Reader) error
}

// NewShardState builds an empty standalone shard for a chain name — the
// merge coordinator's entry point, needing no aggregator. EOS states carry
// the default classification tables (the same ones NewEOSAggregator
// installs), which are configuration, not aggregate state: they are never
// serialized, so an emitted shard decodes against the coordinator's own
// tables.
func NewShardState(chainName string, origin time.Time, bucket time.Duration) (ShardState, error) {
	switch chainName {
	case "eos":
		s := &EOSShard{}
		s.applyDefaultTables()
		s.init(origin, bucket)
		return s, nil
	case "tezos":
		s := &TezosShard{}
		s.init(origin, bucket)
		return s, nil
	case "xrp":
		s := &XRPShard{}
		s.init(origin, bucket)
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown chain %q", chainName)
}

// mergeAsShard is the shared front half of every chain's ShardState.Merge:
// it type-asserts src, validates window compatibility and covered-range
// disjointness, and returns the typed source plus the unioned range.
func mergeAsShard[S ShardState](dst ShardState, src ShardState) (S, BlockRange, error) {
	var zero S
	typed, ok := src.(S)
	if !ok {
		return zero, BlockRange{}, fmt.Errorf("core: merging %s shard into %s shard", src.Chain(), dst.Chain())
	}
	if !dst.Window().Equal(src.Window()) {
		return zero, BlockRange{}, fmt.Errorf("core: merging %s shards with mismatched windows (%s vs %s)",
			dst.Chain(), dst.Window(), src.Window())
	}
	if dst.Covered().Overlaps(src.Covered()) {
		return zero, BlockRange{}, fmt.Errorf("core: merging %s shards with overlapping block ranges (%s and %s): some blocks would count twice",
			dst.Chain(), dst.Covered(), src.Covered())
	}
	return typed, dst.Covered().Union(src.Covered()), nil
}

// parseBatch is the shared front half of every chain's IngestBatch: every
// element must be the chain's Decode output type *B, and block times parse
// before any state is touched, so a malformed block fails the whole batch
// without ingesting any of it.
func parseBatch[B any](batch []any, chainName string, blockTime func(*B) (time.Time, error)) ([]*B, []time.Time, error) {
	blocks := make([]*B, len(batch))
	times := make([]time.Time, len(batch))
	for i, v := range batch {
		b, ok := v.(*B)
		if !ok {
			return nil, nil, fmt.Errorf("core: %s batch element %d is %T, not %T", chainName, i, v, b)
		}
		ts, err := blockTime(b)
		if err != nil {
			return nil, nil, err
		}
		blocks[i], times[i] = b, ts
	}
	return blocks, times, nil
}
