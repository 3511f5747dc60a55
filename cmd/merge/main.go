// Command merge joins the stores of one or more cmd/coordinate runs: it
// loads the shard blobs their workers emitted (coord.RunShardCrawl is the
// only producer), validates that each chain's shards are compatible and
// tile a contiguous block range, folds them through the same
// core.LoadShards / core.MergeShards refusal ladder coord.Run ends on, and
// prints each chain's deterministic figures section to stdout —
// byte-identical to what one process crawling the whole range would have
// printed, which the CI distributed job diffs.
//
// It does the two things coordinate cannot: pool the stores of a fleet —
// several coordinate runs, each over its own sub-range and store — and
// re-render a finished store with no endpoint to dial or lease to win.
//
// Validation is loud by design: mixed chains in one merge group, mismatched
// aggregation windows, overlapping shard ranges (blocks counted twice) and
// gaps (blocks never crawled) are all hard errors naming the offending
// shards, never silently "merged around". Fences are verified too: each
// store's lease and run-state records (coord.FenceIndex) are folded into a
// per-task fence floor, and a shard stamped with an older fence — a zombie
// worker's emission, superseded by a lease reclaim — is refused by name.
//
// Usage:
//
//	merge STORE [STORE...]
//
// Each STORE is a blob-store location (path, file://, mem://, s3://) a
// coordinate run was given as -store. Shards from all stores are pooled
// and grouped by chain; figures print in chain-name order. Progress and
// per-shard diagnostics go to stderr so stdout stays diffable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/blobstore"
	"repro/internal/coord"
	"repro/internal/core"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: merge STORE [STORE...]\n\njoin the stores of one or more coordinate runs and print figures\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(context.Background(), flag.Args(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "merge:", err)
		os.Exit(1)
	}
}

// run loads every shard at the given store locations, merges per chain and
// renders the figures. It is the whole command behind flag parsing so
// tests can drive it hermetically.
func run(ctx context.Context, locations []string, out, diag io.Writer) error {
	// Load with provenance: every validation error below names the store
	// URL and key of the offending blob, so "shards X and Y overlap"
	// points at objects, not just arithmetic.
	// Alongside the shards, each store's lease lineage is folded into one
	// fence-floor index: floors union across stores by max, since a task's
	// lease record and its shard may live in different stores of the pool.
	byChain := make(map[string][]core.ShardBlob)
	minFence := make(map[string]uint64)
	for _, loc := range locations {
		store, err := blobstore.Resolve(loc)
		if err != nil {
			return err
		}
		blobs, err := core.LoadShards(ctx, store)
		if err != nil {
			return err
		}
		for _, b := range blobs {
			fmt.Fprintf(diag, "merge: loaded %s shard %s (window %s, fence %d) from %s\n",
				b.State.Chain(), b.State.Covered(), b.State.Window(), b.Fence, b.Ref())
			byChain[b.State.Chain()] = append(byChain[b.State.Chain()], b)
		}
		index, err := coord.FenceIndex(ctx, store)
		if err != nil {
			return err
		}
		for task, fence := range index {
			if fence > minFence[task] {
				minFence[task] = fence
			}
		}
	}
	if len(minFence) > 0 {
		fmt.Fprintf(diag, "merge: fence floors recorded for %d task(s)\n", len(minFence))
	}
	chains := make([]string, 0, len(byChain))
	for c := range byChain {
		chains = append(chains, c)
	}
	sort.Strings(chains)
	for _, c := range chains {
		merged, _, err := core.MergeShards(byChain[c], false, minFence)
		if err != nil {
			return err
		}
		fmt.Fprintf(diag, "merge: %s: %d shard(s) covering %s\n", c, len(byChain[c]), merged.Covered())
		fmt.Fprint(out, merged.Summary().Render())
	}
	return nil
}
