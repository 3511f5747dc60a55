// Package cli holds the flag surface the crawl/report/serve commands
// share: the archive/replay/range plumbing, validated once here.
package cli

import (
	"flag"
	"fmt"

	"repro/internal/blobstore"
)

// Mode selects which of the shared flags a command registers and how the
// block range is validated — a crawl's -from/-to bound a live fetch, a
// report's slice an archived one.
type Mode int

const (
	// ModeCrawl registers -archive and a live crawl range (-from defaults
	// to block 1, -to 0 meaning head).
	ModeCrawl Mode = iota
	// ModeReport registers -archive, -replay and a replay slice (-from/-to
	// default 0: whole archive, and either both or neither must be set).
	ModeReport
	// ModeServe registers -archive, -replay and the live-feed range.
	ModeServe
)

// ArchiveFlags is the validated archive/replay/range flag set. Register it
// on a FlagSet with the command's Mode, then call Validate after parsing —
// every store location is scheme-checked through blobstore.Resolve before
// any crawl or replay starts, so a typoed URL fails in microseconds
// instead of after a network crawl.
type ArchiveFlags struct {
	// Archive is the blob-store location raw blocks are teed into
	// (path, file://, mem://, s3://).
	Archive string
	// Replay is the blob-store location to replay archives from
	// (ModeReport and ModeServe only).
	Replay string
	// From and To bound the crawl or replay. Semantics are per Mode: for
	// crawl/serve they bound the live fetch (To 0 = head); for report they
	// slice an archived crawl and must be passed together.
	From, To int64

	mode Mode
}

// Register installs the mode's flags on fs. Help text stays per-command
// because the same flag means a different thing to a crawl and a replay.
func (a *ArchiveFlags) Register(fs *flag.FlagSet, mode Mode) {
	a.mode = mode
	switch mode {
	case ModeCrawl:
		fs.StringVar(&a.Archive, "archive", "", "archive location (path or blob-store URL: file://, mem://, s3://): tee every raw block into it for offline replay (cmd/report -replay)")
		fs.Int64Var(&a.From, "from", 1, "first block")
		fs.Int64Var(&a.To, "to", 0, "last block (0 = head)")
	case ModeReport:
		fs.StringVar(&a.Archive, "archive", "", "archive location (path or blob-store URL: file://, mem://, s3://): stages tee raw blocks into it, and replay from it when it already covers their ranges")
		fs.StringVar(&a.Replay, "replay", "", "replay archives at this location (path or blob-store URL) offline (no pipeline, no network) and print their figures")
		fs.Int64Var(&a.From, "from", 0, "with -replay: lowest block to replay; with -to, only segments covering [from, to] are fetched")
		fs.Int64Var(&a.To, "to", 0, "with -replay: highest block to replay")
	case ModeServe:
		fs.StringVar(&a.Archive, "archive", "", "with live endpoints: tee every raw block into per-chain archives at this location (path or blob-store URL)")
		fs.StringVar(&a.Replay, "replay", "", "serve from archives at this location (path or blob-store URL: file://, mem://, s3://) offline, no network")
		fs.Int64Var(&a.From, "from", 1, "first block (live feeds)")
		fs.Int64Var(&a.To, "to", 0, "last block (live feeds; 0 = head)")
	}
}

// Replaying reports whether a replay location was passed.
func (a *ArchiveFlags) Replaying() bool { return a.Replay != "" }

// Validate checks store locations and the block range against the mode's
// semantics. Error text is part of the commands' tested CLI contract.
func (a *ArchiveFlags) Validate() error {
	for _, loc := range []string{a.Archive, a.Replay} {
		if loc == "" {
			continue
		}
		if _, err := blobstore.Resolve(loc); err != nil {
			return err
		}
	}
	switch a.mode {
	case ModeReport:
		if a.From == 0 && a.To == 0 {
			return nil
		}
		if !a.Replaying() {
			return fmt.Errorf("-from/-to need -replay: they slice an archived crawl, not a live one")
		}
		if a.From <= 0 || a.To < a.From {
			return fmt.Errorf("-from %d -to %d is not a block range: pass 1 <= from <= to (both flags together)", a.From, a.To)
		}
	default:
		if a.From < 1 {
			return fmt.Errorf("-from %d is not a block: pass from >= 1", a.From)
		}
		if a.To != 0 && a.To < a.From {
			return fmt.Errorf("-from %d -to %d is not a block range: pass to >= from (or 0 for head)", a.From, a.To)
		}
	}
	return nil
}
