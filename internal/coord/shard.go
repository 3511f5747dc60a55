// Shard blobs and the store layout: every object a coordinated run leaves
// in its store is keyed from one task name, "<chain>-<from10>-<to10>"
// (taskName) —
//
//	<task>.shard             the slice's shard, emitted by RunShardCrawl
//	ckpt/<task>.state        its worker's crash-recovery checkpoint
//	lease/<task>.lease       its lease, and its fence lineage
//	lease/run-<chain>.lease  the run-level election
//	run/<chain>.state        the run plan: the pinned partition
//
// — and one function reads a shard blob back (readShard), for slice
// validation, the final fold and Join alike. The zero-padded range makes a
// store's sorted listing a from-ordered one, and makes two shards of one
// slice overwrite rather than accumulate.

package coord

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/wire"
)

// shardSuffix names shard blobs, so a listing of a store that also holds
// checkpoints, leases and run state finds them.
const shardSuffix = ".shard"

// taskName is the one spelling of a slice's name, from which its shard,
// checkpoint and lease keys and its fence floor all derive.
func taskName(chain string, from, to int64) string {
	return fmt.Sprintf("%s-%010d-%010d", chain, from, to)
}

func shardKey(task string) string { return task + shardSuffix }

// shardBlob is one shard blob as read from a store: where it came from, its
// fence token, the stored bytes and what they decoded to.
type shardBlob struct {
	store, key string
	fence      uint64
	raw        []byte
	state      core.ShardState
}

// ref names the blob in every refusal, so a log points straight at the
// object to inspect or delete.
func (b shardBlob) ref() string { return b.key + " at " + b.store }

// task is the name of the task that emitted the blob — the key its fence
// floor is looked up under.
func (b shardBlob) task() string { return strings.TrimSuffix(b.key, shardSuffix) }

// readShard fetches the shard blob under key, reads its fence and decodes
// it. When the store still holds exactly the bytes of known — a blob read
// earlier — known's decode is returned instead of decoding again.
func readShard(ctx context.Context, store blobstore.Store, key string, known shardBlob) (shardBlob, error) {
	raw, err := store.Get(ctx, key)
	if err != nil {
		return shardBlob{}, fmt.Errorf("coord: fetching shard %s from %s: %w", key, store.URL(), err)
	}
	if known.raw != nil && bytes.Equal(known.raw, raw) {
		return known, nil
	}
	// One open: the envelope's fence, then its body decoded in place.
	chainName, fence, body, err := wire.OpenShard(raw)
	var st core.ShardState
	if err == nil {
		st, err = core.DecodeShardBody(chainName, body)
	}
	if err != nil {
		return shardBlob{}, fmt.Errorf("coord: corrupt shard %s at %s: %w", key, store.URL(), err)
	}
	return shardBlob{store: store.URL(), key: key, fence: fence, raw: raw, state: st}, nil
}

// loadShards lists the store and reads every *.shard blob in it, reusing
// the decodes of known (by key) for blobs that have not changed since. Any
// unreadable blob is a loud error — a merge over silently dropped shards
// would render confidently wrong figures — and so is a store with none.
func loadShards(ctx context.Context, store blobstore.Store, known map[string]shardBlob) ([]shardBlob, error) {
	keys, err := store.List(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("coord: listing shards at %s: %w", store.URL(), err)
	}
	var blobs []shardBlob
	for _, key := range keys {
		if !strings.HasSuffix(key, shardSuffix) {
			continue
		}
		b, err := readShard(ctx, store, key, known[key])
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, b)
	}
	if len(blobs) == 0 {
		return nil, fmt.Errorf("coord: no *%s blobs at %s", shardSuffix, store.URL())
	}
	return blobs, nil
}

// mergeShards validates a set of shard blobs and folds them into one fresh
// state. It refuses, in order: an empty set; a blob fenced below its task's
// floor in floors — a zombie worker's emission, superseded by a lease
// reclaim (tasks without a floor are accepted unchecked: lineage the store
// no longer remembers cannot be enforced); mixed chains; mismatched
// windows; an unknown covered range; overlapping ranges (blocks counted
// twice). Gaps (blocks never crawled) between the sorted ranges are refused
// too unless allowGaps — the coordinator's degraded mode — in which case
// they are returned as missing ranges and what did arrive merges anyway.
//
// Merge consumes the sources: they are reset as they fold in.
func mergeShards(blobs []shardBlob, allowGaps bool, floors map[string]uint64) (core.ShardState, []core.BlockRange, error) {
	if len(blobs) == 0 {
		return nil, nil, fmt.Errorf("coord: no shards to merge")
	}
	for _, b := range blobs {
		if want, ok := floors[b.task()]; ok && b.fence < want {
			return nil, nil, fmt.Errorf("coord: %s shard %s carries fence %d but the lease lineage requires at least %d: refusing a stale emission from a superseded worker",
				b.state.Chain(), b.ref(), b.fence, want)
		}
	}
	first := blobs[0]
	for _, b := range blobs[1:] {
		if b.state.Chain() != first.state.Chain() {
			return nil, nil, fmt.Errorf("coord: merging shards of different chains (%s shard %s and %s shard %s)",
				first.state.Chain(), first.ref(), b.state.Chain(), b.ref())
		}
		if !b.state.Window().Equal(first.state.Window()) {
			return nil, nil, fmt.Errorf("coord: merging %s shards with mismatched windows (%s has %s, %s has %s)",
				first.state.Chain(), first.ref(), first.state.Window(), b.ref(), b.state.Window())
		}
	}
	for _, b := range blobs {
		if !b.state.Covered().Known() {
			return nil, nil, fmt.Errorf("coord: %s shard %s has no covered block range; refusing to merge blind",
				b.state.Chain(), b.ref())
		}
	}
	sorted := make([]shardBlob, len(blobs))
	copy(sorted, blobs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].state.Covered().From < sorted[j].state.Covered().From })
	var gaps []core.BlockRange
	for i := 1; i < len(sorted); i++ {
		pb, cb := sorted[i-1], sorted[i]
		prev, cur := pb.state.Covered(), cb.state.Covered()
		if cur.From <= prev.To {
			return nil, nil, fmt.Errorf("coord: %s shards %s %s and %s %s overlap: blocks %d..%d would count twice",
				first.state.Chain(), pb.ref(), prev, cb.ref(), cur, cur.From, min(prev.To, cur.To))
		}
		if cur.From != prev.To+1 {
			if !allowGaps {
				return nil, nil, fmt.Errorf("coord: gap between %s shards %s %s and %s %s: blocks %d..%d were never crawled",
					first.state.Chain(), pb.ref(), prev, cb.ref(), cur, prev.To+1, cur.From-1)
			}
			gaps = append(gaps, core.BlockRange{From: prev.To + 1, To: cur.From - 1})
		}
	}
	dst, err := core.NewShardState(first.state.Chain(), first.state.Window().Origin, first.state.Window().Bucket)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range sorted {
		if err := dst.Merge(b.state); err != nil {
			return nil, nil, fmt.Errorf("coord: merging shard %s: %w", b.ref(), err)
		}
	}
	return dst, gaps, nil
}

// Join folds the stores of finished coordinate runs — a fleet, one run per
// sub-range and store — into one merged state per chain, in chain-name
// order: it pools their shards, unions their fence floors and merges each
// chain strictly, a gap refused like an overlap because a join has no gap
// report to carry it. Its records go to log; nil discards them.
func Join(ctx context.Context, stores []blobstore.Store, log *slog.Logger) ([]core.ShardState, error) {
	log = orDiscard(log)
	byChain := make(map[string][]shardBlob)
	floors := make(map[string]uint64)
	for _, store := range stores {
		blobs, err := loadShards(ctx, store, nil)
		if err != nil {
			return nil, err
		}
		for _, b := range blobs {
			log.Info("loaded shard", "chain", b.state.Chain(), "shard", b.ref(),
				"covered", b.state.Covered(), "window", b.state.Window(), "fence", b.fence)
			byChain[b.state.Chain()] = append(byChain[b.state.Chain()], b)
		}
		if err := fenceIndex(ctx, store, floors); err != nil {
			return nil, err
		}
	}
	if len(floors) > 0 {
		log.Info("fence floors recorded", "tasks", len(floors))
	}
	chains := make([]string, 0, len(byChain))
	for c := range byChain {
		chains = append(chains, c)
	}
	sort.Strings(chains)
	merged := make([]core.ShardState, 0, len(chains))
	for _, c := range chains {
		st, _, err := mergeShards(byChain[c], false, floors)
		if err != nil {
			return nil, err
		}
		log.Info("merged", "chain", c, "shards", len(byChain[c]), "covered", st.Covered())
		merged = append(merged, st)
	}
	return merged, nil
}

// orDiscard returns log, or a logger that discards every record when log is
// nil.
func orDiscard(log *slog.Logger) *slog.Logger {
	if log == nil {
		return slog.New(slog.DiscardHandler)
	}
	return log
}
