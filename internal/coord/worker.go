package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
)

// CheckpointKey names the crash-recovery blob a shard worker maintains
// for its slice. The suffix is deliberately not ".shard": LoadShards
// skips it, so a half-done slice's checkpoint can share the store with
// finished shards without ever being merged as one.
func CheckpointKey(chainName string, from, to int64) string {
	return fmt.Sprintf("ckpt/%s-%010d-%010d.state", chainName, from, to)
}

// CrawlerConfig parameterizes one shard worker run (RunShardCrawl).
type CrawlerConfig struct {
	// Kit is the chain's aggregator stack (core.NewStatsKit) the worker
	// ingests into.
	Kit core.StatsKit
	// Fetcher is the chain endpoint.
	Fetcher collect.BlockFetcher
	// From and To bound the slice, inclusive; both must be concrete — a
	// worker never resolves head itself, the coordinator pinned the range.
	From, To int64
	// Store receives the checkpoint blobs and the final shard blob.
	Store blobstore.Store
	// CheckpointEvery is the chunk size in blocks: each time the crawl —
	// newest block first — has folded another CheckpointEvery blocks below
	// the last checkpoint, the whole aggregate state as of that boundary
	// is encoded and atomically Put at CheckpointKey, while the crawl
	// carries on below it. 0 disables checkpointing (the slice is one
	// chunk).
	CheckpointEvery int64
	// Workers, Ingest, Buffer tune the crawl/ingest pipeline as in
	// cmd/crawl.
	Workers, Ingest, Buffer int
	// MaxRetries and Backoff configure per-block fetch retries.
	MaxRetries int
	Backoff    time.Duration
	// Log, when set, receives progress lines.
	Log io.Writer
	// AfterCheckpoint, when set, runs after each successful checkpoint Put
	// with the range the checkpoint covers — on the checkpointing
	// goroutine, in checkpoint order, never concurrently with itself.
	// Chaos harnesses use it to kill the worker at a known-recoverable
	// instant; it is never called for the final shard emit. A worker
	// cancelled from inside it may still write (and announce here) the
	// checkpoints of chunks it already held complete.
	AfterCheckpoint func(covered core.BlockRange)
	// Fence, when non-zero, is the lease fence token (the claim Attempt
	// the coordinator crawls this slice under) stamped into the emitted
	// shard's envelope, so merge-time fence verification can refuse this
	// emission if the lease is reclaimed mid-crawl. Checkpoints are
	// deliberately NOT fenced: their content is deterministic for the
	// covered range, so a reclaimer resuming from a zombie's checkpoint
	// ingests identical data — fences protect the merged artifact, not the
	// scratch space.
	Fence uint64
}

// CrawlOutcome summarizes a finished shard worker run.
type CrawlOutcome struct {
	// ShardKey is the emitted shard blob's key.
	ShardKey string
	// Resumed is the block range a checkpoint let the worker skip
	// re-crawling (unknown when the run started fresh).
	Resumed core.BlockRange
	// Blocks and Retries aggregate the crawl results across chunks.
	Blocks, Retries int64
}

// RunShardCrawl crawls one slice with per-chunk crash-recoverable
// checkpoints, then emits the finished shard blob. The slice is one
// reverse-chronological stream through one ingest pool
// (core.IngestChunks); every CheckpointEvery blocks the full aggregate
// (not just a frontier) as of that boundary — every block of [lo, To],
// none below lo — is encoded with its covered sub-range and atomically
// Put to the store, by a checkpointing goroutine that runs beside the
// crawl instead of stopping it. A worker killed at ANY point resumes by
// decoding the last checkpoint and continuing below it — blocks fetched
// past the last checkpoint are refetched, blocks a checkpoint covers are
// never refetched and never double-ingested (the covered ranges tile
// exactly). This is what lets a resumed run emit a shard: the decoded
// checkpoint IS this run's aggregate, nothing was skipped past it.
//
// Checkpoints land in order, one per chunk but the last (the shard
// supersedes it), and none after the shard. A block that exhausts its
// retries or a payload that will not decode stops the worker within one
// in-flight window, with no checkpoint reaching down to it. A cancelled
// worker returns only after the checkpoint of the last chunk it held
// complete is written — that Put does not run under ctx — so an
// interrupted run loses only the chunk it was in the middle of.
//
// On success the checkpoint blob is deleted best-effort; a leftover one
// is harmless (its covered range matches the emitted shard and the next
// fresh run of the same slice overwrites it).
func RunShardCrawl(ctx context.Context, cfg CrawlerConfig) (CrawlOutcome, error) {
	if cfg.From < 1 || cfg.To < cfg.From {
		return CrawlOutcome{}, fmt.Errorf("coord: [%d, %d] is not a crawlable slice", cfg.From, cfg.To)
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	st := cfg.Kit.State()
	ckptKey := CheckpointKey(cfg.Kit.Chain, cfg.From, cfg.To)
	var out CrawlOutcome

	// Resume: decode the last checkpoint, if any, into the live aggregate.
	// A torn or corrupt checkpoint is a loud error, never a silent fresh
	// start — silently restarting would double-ingest every block the torn
	// checkpoint covered once the refetched chunks merge with an archive
	// or a later checkpoint of this very state.
	hi := cfg.To
	if raw, err := cfg.Store.Get(ctx, ckptKey); err == nil {
		if derr := st.DecodeFrom(bytes.NewReader(raw)); derr != nil {
			return CrawlOutcome{}, fmt.Errorf("coord: checkpoint %s at %s is corrupt: %w (delete it to restart the slice from scratch)",
				ckptKey, cfg.Store.URL(), derr)
		}
		cov := st.Covered()
		if !cov.Known() || cov.To != cfg.To || cov.From < cfg.From || cov.From > cfg.To {
			return CrawlOutcome{}, fmt.Errorf("coord: checkpoint %s at %s covers %s, outside this worker's slice [%d, %d] (delete it to restart the slice from scratch)",
				ckptKey, cfg.Store.URL(), cov, cfg.From, cfg.To)
		}
		out.Resumed = cov
		hi = cov.From - 1
		logf("resuming:    checkpoint covers %s, continuing below %d", cov, cov.From)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return CrawlOutcome{}, fmt.Errorf("coord: reading checkpoint %s: %w", ckptKey, err)
	}

	if hi >= cfg.From {
		// One stream and one ingest pool for what is left of the slice; the
		// checkpoints are cut from the running ingest. buf belongs to the
		// cutting goroutine, which reuses it from one checkpoint to the next.
		var buf bytes.Buffer
		cut := func(lo int64) error {
			// Every block of [lo, To] is in the aggregate and none below lo.
			st.SetCovered(core.BlockRange{From: lo, To: cfg.To})
			if lo == cfg.From {
				return nil // the last chunk: the shard emit supersedes its checkpoint
			}
			buf.Reset()
			if err := st.EncodeTo(&buf, 0); err != nil {
				return fmt.Errorf("coord: encoding checkpoint covering [%d, %d]: %w", lo, cfg.To, err)
			}
			// Not under ctx: an interrupted worker still writes the chunks
			// it holds complete, so the rerun starts from the latest one.
			if err := cfg.Store.Put(context.WithoutCancel(ctx), ckptKey, buf.Bytes()); err != nil {
				return fmt.Errorf("coord: writing checkpoint %s: %w", ckptKey, err)
			}
			logf("checkpoint:  %s (covers [%d, %d])", ckptKey, lo, cfg.To)
			if cfg.AfterCheckpoint != nil {
				cfg.AfterCheckpoint(core.BlockRange{From: lo, To: cfg.To})
			}
			return nil
		}
		res, err := core.IngestChunks(ctx, cfg.Fetcher,
			collect.CrawlConfig{
				From: cfg.From, To: hi,
				Workers: cfg.Workers, Buffer: cfg.Buffer,
				MaxRetries: cfg.MaxRetries, Backoff: cfg.Backoff,
			},
			cfg.Kit.Decoder, core.IngestConfig{Workers: cfg.Ingest},
			cfg.CheckpointEvery, cut)
		out.Blocks, out.Retries = res.Blocks, res.Retries
		if err != nil {
			return out, fmt.Errorf("coord: crawling [%d, %d]: %w", cfg.From, hi, err)
		}
	}

	st.SetCovered(core.BlockRange{From: cfg.From, To: cfg.To})
	key, err := core.EmitShard(ctx, cfg.Store, st, cfg.Fence)
	if err != nil {
		return out, err
	}
	out.ShardKey = key
	// The shard blob supersedes the checkpoint; losing this Delete only
	// leaves a stale-but-consistent object behind.
	_ = cfg.Store.Delete(ctx, ckptKey)
	logf("emitted:     %s @ %s", key, cfg.Store.URL())
	return out, nil
}
