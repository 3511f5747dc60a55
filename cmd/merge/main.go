// Command merge joins the stores of one or more cmd/coordinate runs and
// prints their deterministic figures to stdout — each chain's summary, then
// the paper's shard-derived sections once over every chain joined —
// byte-identical to what one process crawling the whole range would have
// printed, which TestEveryPathPrintsThePaper diffs. It does the two things
// coordinate cannot: pool the stores of a fleet — several coordinate runs,
// each over its own sub-range and store — and re-render a finished store
// with no endpoint to dial or lease to win.
//
// The join is coord.Join, on the shard reader and refusal ladder
// coord.Run's own final fold ends on. It is loud by design: mismatched
// windows, overlapping ranges (blocks counted twice), gaps (blocks never
// crawled), corrupt blobs and shards fenced below the floor their stores'
// lease and run-state records imply (a zombie worker's emission) are all
// hard errors naming the offending shards by store URL and key.
//
// Usage:
//
//	merge STORE [STORE...]
//
// Each STORE is a blob-store location (path, file://, mem://, s3://) a
// coordinate run was given as -store. Shards from all stores are pooled
// and grouped by chain; summaries print in chain-name order. Progress and
// per-shard diagnostics are log/slog text records on stderr, so stdout
// stays diffable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

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
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(context.Background(), flag.Args(), os.Stdout, log); err != nil {
		log.Error("merge failed", "err", err)
		os.Exit(1)
	}
}

// run resolves the stores, joins them and renders the figures. It is the
// whole command behind flag parsing so tests can drive it hermetically.
func run(ctx context.Context, locations []string, out io.Writer, log *slog.Logger) error {
	stores := make([]blobstore.Store, len(locations))
	for i, loc := range locations {
		store, err := blobstore.Resolve(loc)
		if err != nil {
			return err
		}
		stores[i] = store
	}
	merged, err := coord.Join(ctx, stores, log)
	if err != nil {
		return err
	}
	fmt.Fprint(out, core.Figures(merged...))
	return nil
}
