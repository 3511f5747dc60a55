package pipeline

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
)

// archiveTestOptions keeps the live-then-replay double run quick.
func archiveTestOptions(dir string) Options {
	opts := DefaultOptions()
	opts.EOS.Scale = 400_000
	opts.Tezos.Scale = 6_400
	opts.XRP.Scale = 80_000
	opts.Gov.Scale = 3_200
	opts.ArchiveDir = dir
	return opts
}

// TestPipelineArchiveReplayReproducesFigures is the acceptance path at the
// pipeline layer: a live run with ArchiveDir set tees every stage's raw
// blocks to disk, and a second run over the same directory replays from
// the archives — no endpoints, no probing — and renders byte-identical
// figures.
func TestPipelineArchiveReplayReproducesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run")
	}
	dir := t.TempDir()
	opts := archiveTestOptions(dir)

	live, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"eos", "tezos", "xrp", "governance"} {
		rd, err := archive.OpenWith(filepath.Join(dir, stage), archive.OpenOptions{})
		if err != nil {
			t.Fatalf("stage %s archived nothing: %v", stage, err)
		}
		if rd.Blocks() == 0 {
			t.Fatalf("stage %s archive is empty", stage)
		}
	}
	if len(live.EndpointScores) == 0 {
		t.Fatal("live run probed no endpoints")
	}

	replay, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Replay skips serving and probing entirely; the archive is the
	// endpoint.
	if len(replay.EndpointScores) != 0 {
		t.Fatalf("replay run probed %d endpoints; it should not touch the network", len(replay.EndpointScores))
	}
	if replay.EOSCrawl.Blocks != live.EOSCrawl.Blocks ||
		replay.TezosCrawl.Blocks != live.TezosCrawl.Blocks ||
		replay.XRPCrawl.Blocks != live.XRPCrawl.Blocks {
		t.Fatalf("replay crawl volumes differ: eos %d/%d tezos %d/%d xrp %d/%d",
			replay.EOSCrawl.Blocks, live.EOSCrawl.Blocks,
			replay.TezosCrawl.Blocks, live.TezosCrawl.Blocks,
			replay.XRPCrawl.Blocks, live.XRPCrawl.Blocks)
	}

	// Figure-for-figure equality over everything derived from the block
	// stream (endpoint probing is legitimately absent from a replay).
	renderers := map[string]func(*Result) string{
		"Figure1":     Figure1,
		"Figure3":     Figure3,
		"Figure4":     Figure4,
		"Figure5":     Figure5,
		"Figure6":     Figure6,
		"Figure7":     Figure7,
		"Figure9":     Figure9,
		"HeadlineTPS": HeadlineTPS,
		"CaseStudies": CaseStudies,
	}
	for name, render := range renderers {
		if a, b := render(live), render(replay); a != b {
			t.Errorf("%s differs between live and replay:\n--- live ---\n%s\n--- replay ---\n%s", name, a, b)
		}
	}

	// The deterministic summaries the CI archive job diffs.
	for name, pair := range map[string][2]string{
		"eos":   {core.SummarizeEOS(live.EOS).Render(), core.SummarizeEOS(replay.EOS).Render()},
		"tezos": {core.SummarizeTezos(live.Tezos).Render(), core.SummarizeTezos(replay.Tezos).Render()},
		"xrp":   {core.SummarizeXRP(live.XRP).Render(), core.SummarizeXRP(replay.XRP).Render()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s summary differs:\n%s\nvs\n%s", name, pair[0], pair[1])
		}
	}
}

// TestPipelineArchiveRangeMismatchFails: an archive written under different
// scenario parameters must fail the stage loudly instead of replaying the
// wrong blocks.
func TestPipelineArchiveRangeMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	dir := t.TempDir()
	// Fabricate a "stale" EOS archive from a bigger scenario: it holds a
	// block far past this stage's head, so it is no interrupted run of it.
	w, err := archive.NewWriter(archive.WriterConfig{Dir: filepath.Join(dir, "eos"), Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1<<40, []byte(`{"block_num":1099511627776}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	opts := archiveTestOptions(dir)
	opts.SkipGovernance = true
	_, err = Run(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), "delete the archive") {
		t.Fatalf("stale archive not rejected: %v", err)
	}

	// A chain mismatch is rejected the same way. Fresh directory: the
	// cancelled run above legitimately finalized partial archives for the
	// stages that were in flight when the EOS stage failed.
	dir = t.TempDir()
	opts = archiveTestOptions(dir)
	opts.SkipGovernance = true
	w2, err := archive.NewWriter(archive.WriterConfig{Dir: filepath.Join(dir, "eos"), Chain: "tezos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(1, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), `holds chain "tezos"`) {
		t.Fatalf("chain mismatch not rejected: %v", err)
	}
}
