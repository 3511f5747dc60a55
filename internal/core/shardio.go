// Shard blob I/O: emitting drained shard state to a blob store — one
// producer, coord.RunShardCrawl — and the load/validate/merge path that
// coord.Run's final fold and cmd/merge both end on. Shards land on the
// same backends archive segments do (file://, mem://, s3://, plain paths —
// see internal/blobstore), keyed by chain and covered block range.

package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/blobstore"
	"repro/internal/wire"
)

// shardSuffix names emitted shard blobs so LoadShards can list a location
// that also holds other objects (e.g. archive segments).
const shardSuffix = ".shard"

// shardKey names an emitted shard blob from its chain and covered range —
// "eos-0000000001-0000000050.shard". The zero-padded range makes the
// store's sorted listing a from-ordered listing, and makes two shards of
// the same partition overwrite rather than accumulate.
func shardKey(st ShardState) (string, error) {
	cov := st.Covered()
	if !cov.Known() {
		return "", fmt.Errorf("core: %s shard covers no known block range: SetCovered before emitting", st.Chain())
	}
	return fmt.Sprintf("%s-%010d-%010d%s", st.Chain(), cov.From, cov.To, shardSuffix), nil
}

// EmitShard serializes a drained shard state into the store and returns
// the key it was stored under. The state must know its covered range — an
// emitted shard without one could not be validated against gaps and
// overlaps at merge time. fence is the lease fence token stamped into the
// blob's envelope: a coordinated worker passes the Attempt of the lease it
// crawled under, so merge-time fence verification can reject the emission
// of a zombie whose lease was reclaimed mid-crawl; 0 means unfenced.
func EmitShard(ctx context.Context, store blobstore.Store, st ShardState, fence uint64) (string, error) {
	key, err := shardKey(st)
	if err != nil {
		return "", err
	}
	blob, err := EncodeShard(st, fence)
	if err != nil {
		return "", err
	}
	if err := store.Put(ctx, key, blob); err != nil {
		return "", fmt.Errorf("core: storing shard %s at %s: %w", key, store.URL(), err)
	}
	return key, nil
}

// EncodeShard serializes a shard state to its sealed blob, stamping the
// given fence token (0 = unfenced).
func EncodeShard(st ShardState, fence uint64) ([]byte, error) {
	var buf bytes.Buffer
	if err := st.EncodeTo(&buf, fence); err != nil {
		return nil, fmt.Errorf("core: encoding %s shard: %w", st.Chain(), err)
	}
	return buf.Bytes(), nil
}

// ShardBlob is one decoded shard blob with its provenance: which store it
// came from and under which key. Merge validation errors name the blob,
// not just the range arithmetic, so a coordinator log points straight at
// the object to inspect or delete.
type ShardBlob struct {
	// Store is the resolved store URL the blob was fetched from ("" for
	// in-process states that never touched a store).
	Store string
	// Key is the blob's key in that store.
	Key string
	// Fence is the lease fence token stamped into the blob's envelope
	// (0 for unfenced blobs).
	Fence uint64
	// State is the decoded shard state.
	State ShardState
}

// Ref names the blob for error messages: "KEY at STORE" when provenance
// is known, the covered range otherwise.
func (b ShardBlob) Ref() string {
	if b.Key == "" {
		return b.State.Covered().String()
	}
	if b.Store == "" {
		return b.Key
	}
	return b.Key + " at " + b.Store
}

// TaskName names the coordinator task that produced the blob — the shard
// key minus its suffix, or the same "<chain>-<from>-<to>" string rebuilt
// from the decoded state when the blob never touched a store. It is the
// key fence floors are looked up under during MergeShards.
func (b ShardBlob) TaskName() string {
	if b.Key != "" {
		return strings.TrimSuffix(b.Key, shardSuffix)
	}
	cov := b.State.Covered()
	if !cov.Known() {
		return ""
	}
	return fmt.Sprintf("%s-%010d-%010d", b.State.Chain(), cov.From, cov.To)
}

// LoadShards lists the store and decodes every *.shard blob in it, each
// with its provenance (store URL, key, fence). Any undecodable blob is a
// loud error — a merge over silently dropped shards would render
// confidently wrong figures.
func LoadShards(ctx context.Context, store blobstore.Store) ([]ShardBlob, error) {
	keys, err := store.List(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("core: listing shards at %s: %w", store.URL(), err)
	}
	var out []ShardBlob
	for _, key := range keys {
		if !strings.HasSuffix(key, shardSuffix) {
			continue
		}
		blob, err := store.Get(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("core: fetching shard %s from %s: %w", key, store.URL(), err)
		}
		fence, err := wire.ShardFence(blob)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt shard %s at %s: %w", key, store.URL(), err)
		}
		st, err := DecodeShard(blob)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt shard %s at %s: %w", key, store.URL(), err)
		}
		out = append(out, ShardBlob{Store: store.URL(), Key: key, Fence: fence, State: st})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no *%s blobs at %s", shardSuffix, store.URL())
	}
	return out, nil
}

// MergeShards validates a set of emitted shards and folds them into one
// fresh state. All shards must share one chain and one window; every shard
// must know its covered range; sorted by range the shards must tile a
// contiguous block span. Chain, window, covered-range and overlap (blocks
// counted twice) violations are always loud errors naming the offending
// blobs (store URL + key when known). Gaps (blocks never crawled) between
// sorted shards are an error when allowGaps is false; when true they are
// returned as the missing block ranges and the shards that did arrive
// merge anyway — the partial figures a coordinator renders when a slice
// exhausted its retries, alongside a gap report built from the returned
// ranges.
//
// minFence maps a task name (ShardBlob.TaskName) to the newest fence token
// the store's lease lineage records for that task. A blob stamped with an
// older fence — or no fence at all, when a floor exists — was emitted by a
// zombie worker whose lease had already been reclaimed; merging it could
// fold a stale partial crawl over the reclaimer's complete one, so it is
// always a loud error, never a gap. Tasks absent from minFence (and every
// task when minFence is nil) are accepted unchecked: lineage the store no
// longer remembers cannot be enforced.
//
// Merge consumes the sources: they are reset as they fold in.
func MergeShards(blobs []ShardBlob, allowGaps bool, minFence map[string]uint64) (ShardState, []BlockRange, error) {
	if len(blobs) == 0 {
		return nil, nil, fmt.Errorf("core: no shards to merge")
	}
	for _, b := range blobs {
		if want, ok := minFence[b.TaskName()]; ok && b.Fence < want {
			return nil, nil, fmt.Errorf("core: %s shard %s carries fence %d but the lease lineage requires at least %d: refusing a stale emission from a superseded worker",
				b.State.Chain(), b.Ref(), b.Fence, want)
		}
	}
	first := blobs[0]
	for _, b := range blobs[1:] {
		if b.State.Chain() != first.State.Chain() {
			return nil, nil, fmt.Errorf("core: merging shards of different chains (%s shard %s and %s shard %s)",
				first.State.Chain(), first.Ref(), b.State.Chain(), b.Ref())
		}
		if !b.State.Window().Equal(first.State.Window()) {
			return nil, nil, fmt.Errorf("core: merging %s shards with mismatched windows (%s has %s, %s has %s)",
				first.State.Chain(), first.Ref(), first.State.Window(), b.Ref(), b.State.Window())
		}
	}
	sorted := make([]ShardBlob, len(blobs))
	copy(sorted, blobs)
	for _, b := range sorted {
		if !b.State.Covered().Known() {
			return nil, nil, fmt.Errorf("core: %s shard %s has no covered block range; refusing to merge blind",
				b.State.Chain(), b.Ref())
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].State.Covered().From < sorted[j].State.Covered().From })
	var gaps []BlockRange
	for i := 1; i < len(sorted); i++ {
		pb, cb := sorted[i-1], sorted[i]
		prev, cur := pb.State.Covered(), cb.State.Covered()
		if cur.From <= prev.To {
			return nil, nil, fmt.Errorf("core: %s shards %s %s and %s %s overlap: blocks %d..%d would count twice",
				first.State.Chain(), pb.Ref(), prev, cb.Ref(), cur, cur.From, min(prev.To, cur.To))
		}
		if cur.From != prev.To+1 {
			if !allowGaps {
				return nil, nil, fmt.Errorf("core: gap between %s shards %s %s and %s %s: blocks %d..%d were never crawled",
					first.State.Chain(), pb.Ref(), prev, cb.Ref(), cur, prev.To+1, cur.From-1)
			}
			gaps = append(gaps, BlockRange{From: prev.To + 1, To: cur.From - 1})
		}
	}
	dst, err := NewShardState(first.State.Chain(), first.State.Window().Origin, first.State.Window().Bucket)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range sorted {
		if err := dst.Merge(b.State); err != nil {
			return nil, nil, fmt.Errorf("core: merging shard %s: %w", b.Ref(), err)
		}
	}
	return dst, gaps, nil
}
