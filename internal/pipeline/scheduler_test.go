package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit"
)

// sleepUntilCancelled blocks until ctx is done (or a generous deadline) and
// reports whether cancellation arrived.
func sleepUntilCancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func TestSchedulerRunsIndependentStagesConcurrently(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		var running, peak int32
		row := func(name string) stage {
			return stage{name: name, run: func(ctx context.Context) (int64, int64, error) {
				n := atomic.AddInt32(&running, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				atomic.AddInt32(&running, -1)
				return 0, 0, nil
			}}
		}
		metrics, err := runStages(context.Background(), []stage{row("c"), row("b"), row("a")})
		if err != nil {
			t.Fatal(err)
		}
		if atomic.LoadInt32(&peak) < 2 {
			t.Fatalf("peak concurrency = %d, want >= 2", peak)
		}
		// Metrics keep registration order whatever order the stages finish in.
		if len(metrics) != 3 || metrics[0].Name != "c" || metrics[1].Name != "b" || metrics[2].Name != "a" {
			t.Fatalf("metric order: %+v", metrics)
		}
	})
}

// TestSchedulerFirstErrorCancelsInFlight injects a failing stage next to a
// long-running one: the failure must be captured as the run's error and the
// in-flight stage must see prompt context cancellation.
func TestSchedulerFirstErrorCancelsInFlight(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		boom := errors.New("stage exploded")
		var slowCancelled atomic.Bool
		stages := []stage{
			{name: "slow", run: func(ctx context.Context) (int64, int64, error) {
				slowCancelled.Store(sleepUntilCancelled(ctx))
				return 0, 0, ctx.Err()
			}},
			{name: "failing", run: func(ctx context.Context) (int64, int64, error) {
				time.Sleep(10 * time.Millisecond)
				return 0, 0, boom
			}},
		}
		start := time.Now()
		metrics, err := runStages(context.Background(), stages)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the injected stage error", err)
		}
		if !strings.Contains(err.Error(), "failing stage") {
			t.Errorf("error %q does not name the failing stage", err)
		}
		if !slowCancelled.Load() {
			t.Error("in-flight stage never saw cancellation")
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("error propagation took %s, want prompt cancellation", elapsed)
		}
		if len(metrics) != 2 || metrics[0].Name != "slow" || metrics[1].Name != "failing" {
			t.Fatalf("metrics of a failed run: %+v", metrics)
		}
	})
}

// TestSchedulerParentCancellationStopsStages cancels the parent context and
// expects every in-flight stage to stop promptly.
func TestSchedulerParentCancellationStopsStages(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled int32
		row := func(name string) stage {
			return stage{name: name, run: func(ctx context.Context) (int64, int64, error) {
				if sleepUntilCancelled(ctx) {
					atomic.AddInt32(&cancelled, 1)
				}
				return 0, 0, ctx.Err()
			}}
		}
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := runStages(ctx, []stage{row("a"), row("b"), row("c")})
		if err == nil {
			t.Fatal("cancelled run reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := atomic.LoadInt32(&cancelled); got != 3 {
			t.Fatalf("%d of 3 stages saw cancellation", got)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("cancellation took %s", elapsed)
		}
	})
}

// TestRunInjectedFailingStage exercises first-error capture over Run's own
// stage table: a stage that fails immediately next to it must abort the
// whole pipeline, cancelling the chain stages mid-flight.
func TestRunInjectedFailingStage(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		boom := errors.New("injected failure")
		res := &Result{Opts: DefaultOptions()}
		stages := append(res.stages(), stage{
			name: "injected",
			run: func(ctx context.Context) (int64, int64, error) {
				return 0, 0, boom
			},
		})
		start := time.Now()
		_, err := runStages(context.Background(), stages)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want injected error", err)
		}
		if !strings.Contains(err.Error(), "injected stage") {
			t.Errorf("error %q does not name the failing stage", err)
		}
		// The injected stage fails instantly, so the heavyweight chain stages
		// must be cancelled long before they would complete naturally.
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("pipeline took %s after instant failure; cancellation not propagating", elapsed)
		}
	})
}

// TestRunCancelledParentContext aborts the full pipeline mid-run.
func TestRunCancelledParentContext(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		if _, err := Run(ctx, DefaultOptions()); err == nil {
			t.Fatal("cancelled pipeline reported success")
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancellation took %s", elapsed)
		}
	})
}

// TestRunSurfacesStageMetrics checks the stage accounting on a successful
// run: every row of the stage table — and nothing else — reports a metric
// with crawl volume.
func TestRunSurfacesStageMetrics(t *testing.T) {
	r := testResult(t)
	want := map[string]bool{"eos": false, "tezos": false, "xrp": false, "governance": false}
	for _, m := range r.StageMetrics {
		if _, ok := want[m.Name]; !ok {
			t.Errorf("unexpected stage %q", m.Name)
			continue
		}
		want[m.Name] = true
		if m.Elapsed <= 0 {
			t.Errorf("stage %s has no wall-clock", m.Name)
		}
		if m.Blocks == 0 || m.Transactions == 0 {
			t.Errorf("stage %s reported no volume: %+v", m.Name, m)
		}
		if m.TPS <= 0 {
			t.Errorf("stage %s TPS = %f", m.Name, m.TPS)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("stage %s missing from metrics", name)
		}
	}
}
