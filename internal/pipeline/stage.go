package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// stage is one row of Run's stage table. The rows — the EOS, Tezos and XRP
// reproductions, the Babylon governance replay and the optional EIDOS
// stress replay — share nothing (each binds its own ephemeral loopback
// ports and writes its own Result fields), so they all run at once. run
// must honour ctx promptly: it is cancelled as soon as any row fails. It
// returns the blocks (or ledgers) the row crawled and the transactions (or
// operations) it aggregated.
type stage struct {
	name string
	run  func(ctx context.Context) (blocks, txs int64, err error)
}

// StageMetric records one stage's wall-clock, crawl volume and effective
// throughput. Run surfaces these in Result in stage-table order.
type StageMetric struct {
	Name    string
	Elapsed time.Duration
	// Blocks is how many blocks (or ledgers) the stage crawled.
	Blocks int64
	// Transactions is how many transactions (or operations) the stage
	// aggregated.
	Transactions int64

	// TPS is aggregated transactions per wall-clock second of the stage —
	// the pipeline-side throughput, not the simulated chain's TPS.
	TPS float64
}

// runStages launches every row at once and waits for all of them. The first
// row error cancels the context passed to the others and is returned,
// naming the row, once they have drained; a cancelled parent surfaces as
// its ctx.Err(). The returned metrics are ordered like stages.
func runStages(parent context.Context, stages []stage) ([]StageMetric, error) {
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
			blocks, txs, err := s.run(ctx)
			m := StageMetric{Name: s.name, Elapsed: time.Since(start), Blocks: blocks, Transactions: txs}
			if secs := m.Elapsed.Seconds(); secs > 0 {
				m.TPS = float64(txs) / secs
			}
			metrics[i] = m
			if err != nil {
				failOnce.Do(func() {
					firstErr = fmt.Errorf("pipeline: %s stage: %w", s.name, err)
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
