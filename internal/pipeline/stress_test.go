package pipeline

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
)

// stressMetric returns the eidos-stress row of a run's stage metrics.
func stressMetric(t *testing.T, res *Result) StageMetric {
	t.Helper()
	for _, m := range res.StageMetrics {
		if m.Name == "eidos-stress" {
			return m
		}
	}
	t.Fatalf("eidos-stress missing from StageMetrics: %+v", res.StageMetrics)
	return StageMetric{}
}

// TestPipelineEIDOSStressRow: Options.Stress switches on the fifth row of
// the stage table, which runs through the same runStage as the others — so
// it surfaces in StageMetrics, tees into its own archive and replays from
// it on a rerun.
func TestPipelineEIDOSStressRow(t *testing.T) {
	opts := DefaultOptions()
	// Only the stress stage matters here; keep the built-ins coarse and
	// skip the governance replay.
	opts.EOSScale = 400_000
	opts.TezosScale = 8_000
	opts.XRPScale = 200_000
	opts.SkipGovernance = true
	opts.Stress, opts.StressScale = true, 100_000
	if testing.Short() {
		opts.StressScale = 200_000
	}
	opts.ArchiveDir = t.TempDir()

	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	stress := stressMetric(t, res)
	if stress.Blocks == 0 || stress.Transactions == 0 {
		t.Fatalf("eidos-stress processed nothing: %+v", stress)
	}
	if stress.TPS <= 0 {
		t.Fatalf("eidos-stress TPS = %f", stress.TPS)
	}
	// The stage renders in the same report table as the built-ins.
	if table := StageTimings(res); !strings.Contains(table, "eidos-stress") {
		t.Fatalf("StageTimings omits the stress stage:\n%s", table)
	}

	// The live run teed the stress row's blocks into ArchiveDir/eidos-stress;
	// a rerun finds the archive covering its range and replays it.
	rd, err := archive.OpenWith(filepath.Join(opts.ArchiveDir, "eidos-stress"), archive.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Covers(1, stress.Blocks) || rd.Blocks() != stress.Blocks {
		t.Fatalf("stress archive does not cover the %d blocks the stage crawled", stress.Blocks)
	}
	rerun, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rerun.EndpointScores) != 0 {
		t.Fatal("rerun probed endpoints; every stage should have replayed its archive")
	}
	if again := stressMetric(t, rerun); again.Blocks != stress.Blocks || again.Transactions != stress.Transactions {
		t.Fatalf("replayed stress row %+v differs from the live one %+v", again, stress)
	}
}
