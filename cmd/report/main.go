// Command report runs the full reproduction pipeline — calibrated
// workloads, chain simulators, network crawl, measurement — and prints
// every table and figure from the paper's evaluation.
//
// Usage:
//
//	report [-eos-scale N] [-tezos-scale N] [-xrp-scale N] [-gov-scale N]
//	       [-stress [-stress-scale N]] [-seed N] [-workers N] [-figure name]
//	       [-archive STORE]
//	report -replay STORE [-workers N] [-from N -to N]
//
// Smaller scales simulate more traffic and converge closer to the paper's
// percentages; the defaults finish in a few seconds. The one -seed drives
// every stage's workload, as the paper measured each chain once.
//
// STORE is a blob-store location: a plain directory path, file://PATH,
// mem://NAME, or s3://BUCKET/PREFIX?endpoint=URL.
//
// With -archive STORE every stage tees its raw block stream into
// per-stage archives under STORE, and a rerun with the same flag replays
// from them instead of crawling (see pipeline.Options.ArchiveDir).
//
// With -replay STORE the pipeline does not run at all: the command opens
// the archive (or each per-chain archive directly under STORE, as
// cmd/crawl -archive and pipeline ArchiveDir write them), walks the raw
// blocks in parallel through core.IngestArchive — the same decoders and
// mergeable shards a live crawl ingests through, minus the network —
// and prints each chain's deterministic figures (core.Figures: its summary,
// then the paper's shard-derived sections). They are byte-identical to what
// the live crawl printed, which TestEveryPathPrintsThePaper verifies by
// diffing the two. With -from/-to only blocks in that range
// replay, and only the segments covering it are fetched and verified —
// the manifest's per-segment block-range index prunes the rest, which is
// what makes slicing a huge remote archive cheap. -workers sizes the
// ingest pool (0 = one per CPU) and never changes a byte of the output:
// TestEveryPathPrintsThePaper diffs a -workers 1 replay against a -workers 3
// one. Progress and errors are log/slog text records on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/pipeline"
)

func main() {
	opts := pipeline.DefaultOptions()
	flag.Int64Var(&opts.EOSScale, "eos-scale", opts.EOSScale, "EOS scale divisor (smaller = more traffic)")
	flag.Int64Var(&opts.TezosScale, "tezos-scale", opts.TezosScale, "Tezos scale divisor")
	flag.Int64Var(&opts.XRPScale, "xrp-scale", opts.XRPScale, "XRP scale divisor")
	flag.Int64Var(&opts.GovScale, "gov-scale", opts.GovScale, "governance replay scale divisor")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "deterministic scenario seed (applied to every stage)")
	flag.IntVar(&opts.Workers, "workers", opts.Workers, "shared crawl worker pool size; with -replay: ingest workers per archive (0 = one per CPU)")
	figure := flag.String("figure", "all", "figure to print: "+strings.Join(figureNames(), ", "))
	flag.BoolVar(&opts.Stress, "stress", false, "add the eidos-stress stage: the EOS workload at a hotter arrival rate, reported in the stage timings")
	flag.Int64Var(&opts.StressScale, "stress-scale", 0, "eidos-stress scale divisor (0 = quarter of the EOS default)")
	var af cli.ArchiveFlags
	af.Register(flag.CommandLine, cli.ModeReport)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// A bad flag or figure name is refused before the reproduction runs.
	render, err := figureRenderer(*figure)
	if err == nil {
		err = af.Validate()
	}
	if err != nil {
		log.Error("report failed", "err", err)
		os.Exit(2)
	}

	opts.ArchiveDir = af.Archive
	if af.Replaying() {
		err = replayArchives(context.Background(), af.Replay, opts.Workers, af.From, af.To, os.Stdout, log)
	} else {
		var res *pipeline.Result
		if res, err = pipeline.Run(context.Background(), opts); err == nil {
			fmt.Println(render(res))
		}
	}
	if err != nil {
		log.Error("report failed", "err", err)
		os.Exit(1)
	}
}

// figures maps each -figure name to its renderer, in help-text order: the
// shard-derived sections render in core over the run's Paper, the rest need
// the simulator or the run's metadata and render in pipeline.
var figures = []struct {
	name   string
	render func(*pipeline.Result) string
}{
	{"all", pipeline.FullReport},
	{"1", paper(core.Paper.Figure1)}, {"2", pipeline.Figure2}, {"3", paper(core.Paper.Figure3)},
	{"4", paper(core.Paper.Figure4)}, {"5", paper(core.Paper.Figure5)}, {"6", paper(core.Paper.Figure6)},
	{"7", paper(core.Paper.Figure7)}, {"8", paper(core.Paper.Figure8)}, {"9", pipeline.Figure9},
	{"11", func(r *pipeline.Result) string { return r.Paper().Figure11a() + pipeline.Figure11b(r) }},
	{"12", paper(core.Paper.Figure12)}, {"tps", paper(core.Paper.HeadlineTPS)},
	{"cases", func(r *pipeline.Result) string { return r.Paper().CaseStudies() + pipeline.CaseNotes(r) }},
	{"endpoints", pipeline.EndpointReport}, {"stages", pipeline.StageTimings},
}

// paper renders one of core's sections over a run.
func paper(section func(core.Paper) string) func(*pipeline.Result) string {
	return func(r *pipeline.Result) string { return section(r.Paper()) }
}

func figureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// figureRenderer resolves a -figure name (case-insensitively), so a typo is
// refused before the reproduction runs rather than after it.
func figureRenderer(name string) (func(*pipeline.Result) string, error) {
	for _, f := range figures {
		if strings.EqualFold(f.name, name) {
			return f.render, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want one of: %s)", name, strings.Join(figureNames(), ", "))
}

// replayArchives regenerates figures offline from archived raw blocks. dir
// is either one chain's archive (it holds manifest.json directly) or a
// parent whose immediate subdirectories are archives, the layout cmd/crawl
// -archive and the pipeline's ArchiveDir produce. Every archive replays
// through core.IngestArchive: workers claim record ranges, not segments,
// so every worker is busy whatever the segment count; records are decoded
// in place and folded into per-worker shards — the figures are
// byte-identical to the live crawl's because every aggregate is
// order-independent.
//
// With from > 0 only blocks in [from, to] replay: the ranged open consults
// the manifest's per-segment block-range index, so segments outside the
// slice are never fetched or verified. An archive whose blocks fall entirely
// outside the range is skipped like an empty one.
func replayArchives(ctx context.Context, dir string, workers int, from, to int64, out io.Writer, log *slog.Logger) error {
	dirs, err := archive.Discover(dir)
	if err != nil {
		return err
	}
	for _, adir := range dirs {
		rd, err := archive.OpenWith(adir, archive.OpenOptions{From: from, To: to})
		if err != nil {
			return err
		}
		// The summary anchors every chain's series at the paper's
		// observation window, exactly as cmd/crawl does live — the two
		// sides of the determinism diff must agree. Blocks before the
		// window (e.g. a pipeline governance archive, July 2019) clamp
		// into bucket 0, so such an archive replays correctly but its
		// bucket percentiles describe one big pre-window bucket.
		if rd.Blocks() == 0 {
			log.Info("skipping archive with no blocks to replay", "chain", rd.Chain(), "dir", adir, "from", from, "to", to)
			continue
		}
		if err := rd.CheckComplete(); err != nil {
			return err
		}
		kit, err := core.NewStatsKit(rd.Chain(), chain.ObservationStart, 6*time.Hour)
		if err != nil {
			return fmt.Errorf("archive %s: %w", adir, err)
		}
		if _, err := core.IngestArchive(ctx, rd, kit.Decoder, core.IngestConfig{Workers: workers}); err != nil {
			return fmt.Errorf("replaying %s: %w", adir, err)
		}
		// Progress goes to the log: stdout carries only the deterministic
		// figures, so it can be diffed against a live crawl's.
		log.Info("replayed", "chain", rd.Chain(), "blocks", rd.Blocks(), "dir", adir, "segments", rd.Segments())
		fmt.Fprint(out, core.Figures(kit.State()))
	}
	return nil
}
