package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Stage is one independent unit of work for RunStages. The pipeline's
// stages — the EOS, Tezos and XRP reproductions, the Babylon governance
// replay and the optional EIDOS stress replay — share nothing (each binds
// its own ephemeral loopback ports and writes its own Result fields), so
// they all run at once.
type Stage struct {
	// Name identifies the stage in metrics and error messages. Names must
	// be unique within one RunStages call.
	Name string
	// Run executes the stage. Implementations must honour ctx promptly:
	// it is cancelled as soon as any stage fails. A stage must only touch
	// state no concurrent stage touches.
	Run func(ctx context.Context) (StageStats, error)
}

// StageStats is what a stage reports about the workload it processed;
// RunStages combines it with the measured wall-clock into a StageMetric.
type StageStats struct {
	// Blocks is how many blocks (or ledgers) the stage crawled.
	Blocks int64
	// Transactions is how many transactions (or operations) the stage
	// aggregated.
	Transactions int64
}

// StageMetric records one stage's wall-clock, crawl volume and effective
// throughput. Run surfaces these in Result in the same order the stages
// were registered.
type StageMetric struct {
	Name    string
	Elapsed time.Duration
	StageStats

	// TPS is aggregated transactions per wall-clock second of the stage —
	// the pipeline-side throughput, not the simulated chain's TPS.
	TPS float64
}

// RunStages launches every stage at once and waits for all of them. The
// first stage error cancels the context passed to the others and is
// returned, naming the stage, once they have drained; a cancelled parent
// surfaces as its ctx.Err(). The returned metrics are ordered like stages.
func RunStages(parent context.Context, stages []Stage) ([]StageMetric, error) {
	seen := make(map[string]bool, len(stages))
	for i, s := range stages {
		if s.Name == "" {
			return nil, fmt.Errorf("pipeline: stage %d has no name", i)
		}
		if s.Run == nil {
			return nil, fmt.Errorf("pipeline: stage %q has no run function", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("pipeline: duplicate stage %q", s.Name)
		}
		seen[s.Name] = true
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	metrics := make([]StageMetric, len(stages))
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for i, s := range stages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			stats, err := s.Run(ctx)
			m := StageMetric{Name: s.Name, Elapsed: time.Since(start), StageStats: stats}
			if secs := m.Elapsed.Seconds(); secs > 0 {
				m.TPS = float64(stats.Transactions) / secs
			}
			metrics[i] = m
			if err != nil {
				failOnce.Do(func() {
					firstErr = fmt.Errorf("pipeline: %s stage: %w", s.Name, err)
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = parent.Err()
	}
	return metrics, firstErr
}
