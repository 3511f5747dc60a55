// Command report runs the full reproduction pipeline — calibrated
// workloads, chain simulators, network crawl, measurement — and prints
// every table and figure from the paper's evaluation.
//
// Usage:
//
//	report [-eos-scale N] [-tezos-scale N] [-xrp-scale N] [-gov-scale N]
//	       [-seed N] [-workers N] [-figure name] [-archive STORE]
//	report -replay STORE [-workers N] [-from N -to N]
//
// Smaller scales simulate more traffic and converge closer to the paper's
// percentages; the defaults finish in a few seconds.
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
// and prints each chain's deterministic figures section. The sections are
// byte-identical to what the live crawl printed, which the CI archive job
// verifies by diffing the two. With -from/-to only blocks in that range
// replay, and only the segments covering it are fetched and verified —
// the manifest's per-segment block-range index prunes the rest, which is
// what makes slicing a huge remote archive cheap. -workers sizes the
// ingest pool (0 = one per CPU) and never changes a byte of the output:
// the CI archive job diffs a -workers 1 replay against a -workers 3 one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/prof"
)

func main() {
	opts := pipeline.DefaultOptions()
	flag.Int64Var(&opts.EOS.Scale, "eos-scale", opts.EOS.Scale, "EOS scale divisor (smaller = more traffic)")
	flag.Int64Var(&opts.Tezos.Scale, "tezos-scale", opts.Tezos.Scale, "Tezos scale divisor")
	flag.Int64Var(&opts.XRP.Scale, "xrp-scale", opts.XRP.Scale, "XRP scale divisor")
	flag.Int64Var(&opts.Gov.Scale, "gov-scale", opts.Gov.Scale, "governance replay scale divisor")
	seed := flag.Int64("seed", 1, "deterministic scenario seed (applied to every stage)")
	flag.IntVar(&opts.Workers, "workers", opts.Workers, "shared crawl worker pool size; with -replay: ingest workers per archive (0 = one per CPU)")
	figure := flag.String("figure", "all", "figure to print: "+strings.Join(figureNames(), ", "))
	stress := flag.Bool("stress", false, "add the eidos-stress stage: the EOS workload at a hotter arrival rate, reported in the stage timings")
	stressScale := flag.Int64("stress-scale", 0, "eidos-stress scale divisor (0 = quarter of the EOS default)")
	var af cli.ArchiveFlags
	af.Register(flag.CommandLine, cli.ModeReport)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf work)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	// finish is the single exit point once profiling has started: every
	// path — success, pipeline error, unknown figure — finalizes the
	// profiles first (a failing run is exactly the one whose partial CPU
	// profile the user wants intact), and a profile-write failure turns an
	// otherwise-clean exit into a failure instead of passing silently.
	finish := func(code int, msg any) {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "report:", perr)
			if code == 0 {
				code = 1
			}
		}
		if msg != nil {
			fmt.Fprintln(os.Stderr, "report:", msg)
		}
		if code != 0 {
			os.Exit(code)
		}
	}
	if err := af.Validate(); err != nil {
		finish(2, err)
	}
	render, err := figureRenderer(*figure)
	if err != nil {
		finish(2, err)
	}
	opts.ArchiveDir = af.Archive
	if af.Replaying() {
		if err := replayArchives(context.Background(), af.Replay, opts.Workers, af.From, af.To, os.Stdout); err != nil {
			finish(1, err)
		}
		finish(0, nil)
		return
	}
	opts.EOS.Seed, opts.Tezos.Seed, opts.XRP.Seed, opts.Gov.Seed = *seed, *seed, *seed, *seed
	if *stress {
		opts.Stress = &pipeline.StageOptions{Scale: *stressScale, Seed: *seed}
	}

	res, err := pipeline.Run(context.Background(), opts)
	if err != nil {
		finish(1, err)
	}

	fmt.Println(render(res))
	finish(0, nil)
}

// figures maps each -figure name to its renderer, in help-text order.
var figures = []struct {
	name   string
	render func(*pipeline.Result) string
}{
	{"all", pipeline.FullReport},
	{"1", pipeline.Figure1}, {"2", pipeline.Figure2}, {"3", pipeline.Figure3},
	{"4", pipeline.Figure4}, {"5", pipeline.Figure5}, {"6", pipeline.Figure6},
	{"7", pipeline.Figure7}, {"8", pipeline.Figure8}, {"9", pipeline.Figure9},
	{"11", pipeline.Figure11}, {"12", pipeline.Figure12},
	{"tps", pipeline.HeadlineTPS}, {"cases", pipeline.CaseStudies},
	{"endpoints", pipeline.EndpointReport}, {"stages", pipeline.StageTimings},
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
func replayArchives(ctx context.Context, dir string, workers int, from, to int64, out io.Writer) error {
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
			if from > 0 {
				fmt.Fprintf(os.Stderr, "replay %s: archive %s holds no blocks in [%d, %d]\n", rd.Chain(), adir, from, to)
			} else {
				fmt.Fprintf(os.Stderr, "replay %s: archive %s is empty\n", rd.Chain(), adir)
			}
			continue
		}
		// Fail fast on gaps: an interrupted crawl that was never resumed
		// left holes, and silently replaying around them would skew every
		// figure.
		if !rd.Covers(rd.From(), rd.To()) {
			return fmt.Errorf("archive %s is incomplete: %d blocks in [%d, %d] — rerun the crawl with the same -archive to fetch the rest",
				adir, rd.Blocks(), rd.From(), rd.To())
		}
		kit, err := core.NewStatsKit(rd.Chain(), chain.ObservationStart, 6*time.Hour)
		if err != nil {
			return fmt.Errorf("archive %s: %w", adir, err)
		}
		if _, err := core.IngestArchive(ctx, rd, kit.Decoder, core.IngestConfig{Workers: workers}); err != nil {
			return fmt.Errorf("replaying %s: %w", adir, err)
		}
		// Progress goes to stderr: stdout carries only the deterministic
		// figures sections, so it can be diffed against a live crawl's.
		fmt.Fprintf(os.Stderr, "replay %s: %d blocks from %s (%d segments)\n",
			rd.Chain(), rd.Blocks(), adir, rd.Segments())
		fmt.Fprint(out, kit.Summarize().Render())
	}
	return nil
}
