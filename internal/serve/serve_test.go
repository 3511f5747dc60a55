package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/wire"
)

// eosBlocks builds an ingest batch of n synthetic EOS blocks numbered
// start..start+n-1, each carrying one token transfer, timestamped inside
// the paper's observation window so the series buckets normally.
func eosBlocks(n int, start int64) []any {
	base := time.Date(2019, time.October, 2, 0, 0, 0, 0, time.UTC)
	blocks := make([]any, n)
	for i := range blocks {
		num := start + int64(i)
		from, to := fmt.Sprintf("user%d", num%7), fmt.Sprintf("user%d", (num+1)%7)
		blocks[i] = &wire.EOSBlock{
			Timestamp: base.Add(time.Duration(num) * time.Second).Format(wire.EOSTimestampLayout),
			Transactions: []wire.EOSTrx{{Actions: []wire.EOSAction{{
				Account: "eosio.token", Name: "transfer",
				Actor: from, From: from, To: to, Quantity: "1.0000 EOS",
			}}}},
		}
	}
	return blocks
}

func newEOSPublisher(t testing.TB) (*Publisher, *core.EOSAggregator, func()) {
	p := NewPublisher()
	agg := core.NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	release, err := p.Register("eos", core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}, func() core.ChainSummary { return core.SummarizeEOS(agg) })
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return p, agg, release
}

func TestPublisherEmptySnapshot(t *testing.T) {
	p := NewPublisher()
	snap := p.Current()
	if snap == nil {
		t.Fatal("fresh publisher served a nil snapshot")
	}
	if snap.Epoch != 0 || len(snap.Chains) != 0 || snap.Drained {
		t.Fatalf("unexpected empty snapshot: %+v", snap)
	}
	if got := p.Publish(); got.Epoch != 1 {
		t.Fatalf("first publish epoch = %d, want 1", got.Epoch)
	}
	// No chains registered: never "drained" — there is nothing final to serve.
	if p.Drained() {
		t.Fatal("empty publisher reports drained")
	}
}

func TestRegisterDuplicateChain(t *testing.T) {
	p, _, release := newEOSPublisher(t)
	defer release()
	w := core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}
	if _, err := p.Register("eos", w, func() core.ChainSummary { return core.ChainSummary{} }); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
}

// TestRegisterWindowMismatch: a second feed for the same chain with a
// different bucket size (or origin) must be rejected with an error naming
// both windows — snapshots mixing differently-anchored series would be
// meaningless. A different chain NAME with a different window stays legal
// (the pipeline's governance feed relies on that).
func TestRegisterWindowMismatch(t *testing.T) {
	p, _, release := newEOSPublisher(t)
	defer release()
	w24 := core.Window{Origin: chain.ObservationStart, Bucket: 24 * time.Hour}
	_, err := p.Register("eos", w24, func() core.ChainSummary { return core.ChainSummary{} })
	if err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("window-mismatched duplicate not called out: %v", err)
	}
	relGov, err := p.Register("governance", w24, func() core.ChainSummary { return core.ChainSummary{} })
	if err != nil {
		t.Fatalf("distinct chain with its own window rejected: %v", err)
	}
	defer relGov()
	snap := p.Publish()
	if got := snap.Chains["governance"].Window; !got.Equal(w24) {
		t.Fatalf("snapshot window = %s, want %s", got, w24)
	}
	if got := snap.Chains["eos"].Window; got.Bucket != 6*time.Hour {
		t.Fatalf("eos snapshot window = %s, want 6h bucket", got)
	}
}

func TestReleaseMarksDrainedAndPublishes(t *testing.T) {
	p, agg, release := newEOSPublisher(t)
	if err := agg.IngestBatch(eosBlocks(10, 1)); err != nil {
		t.Fatal(err)
	}
	before := p.Publish()
	if before.Drained || before.Chains["eos"].Drained {
		t.Fatalf("drained before release: %+v", before)
	}
	release()
	release() // idempotent
	snap := p.Current()
	if snap.Epoch <= before.Epoch {
		t.Fatalf("release did not publish: epoch %d -> %d", before.Epoch, snap.Epoch)
	}
	if !snap.Drained || !snap.Chains["eos"].Drained {
		t.Fatalf("release did not mark drained: %+v", snap)
	}
	if snap.Chains["eos"].Summary.Blocks != 10 {
		t.Fatalf("drained snapshot blocks = %d, want 10", snap.Chains["eos"].Summary.Blocks)
	}
}

func TestRunPublishesFinalEpochOnCancel(t *testing.T) {
	p, agg, release := newEOSPublisher(t)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Run(ctx, time.Hour) // interval never fires; only the final publish
		close(done)
	}()
	if err := agg.IngestBatch(eosBlocks(3, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	snap := p.Current()
	if snap.Epoch == 0 {
		t.Fatal("Run exited without a final publish")
	}
	if got := snap.Chains["eos"].Summary.Blocks; got != 3 {
		t.Fatalf("final epoch blocks = %d, want 3", got)
	}
}

// TestSnapshotImmutableUnderConcurrentIngest is the serving layer's core
// property: a held snapshot's renders stay byte-identical no matter how
// many epochs writers publish past it. N writers hammer the aggregator and
// publish concurrently while M readers hold old snapshots and re-render
// them; any copy-on-write violation shows up as a byte diff here or as a
// data race under -race.
func TestSnapshotImmutableUnderConcurrentIngest(t *testing.T) {
	p, agg, release := newEOSPublisher(t)

	const (
		writers    = 4
		readers    = 4
		iterations = 40
		batch      = 8
	)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// Disjoint block ranges per writer per iteration.
				start := int64(w)*1_000_000 + int64(i)*batch + 1
				if err := agg.IngestBatch(eosBlocks(batch, start)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				p.Publish()
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	type held struct {
		snap    *Snapshot
		figures string
	}
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var holds []held
			var lastEpoch uint64
			check := func() bool {
				for _, h := range holds {
					if got := h.snap.RenderFigures(); got != h.figures {
						t.Errorf("held snapshot (epoch %d) render changed:\nwas:\n%s\nnow:\n%s",
							h.snap.Epoch, h.figures, got)
						return false
					}
					if st, ok := h.snap.Chains["eos"]; ok && st.Summary.Render() != st.Figures {
						t.Errorf("epoch %d: Summary.Render() diverged from pre-rendered Figures", h.snap.Epoch)
						return false
					}
				}
				return true
			}
			for {
				select {
				case <-writersDone:
					check()
					return
				default:
				}
				snap := p.Current()
				if snap.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", snap.Epoch, lastEpoch)
					return
				}
				lastEpoch = snap.Epoch
				holds = append(holds, held{snap, snap.RenderFigures()})
				if len(holds) > 16 {
					holds = holds[1:]
				}
				if !check() {
					return
				}
			}
		}()
	}
	readerWG.Wait()

	release()
	final := p.Current()
	if !final.Drained {
		t.Fatal("not drained after release")
	}
	want := int64(writers * iterations * batch)
	if got := final.Chains["eos"].Summary.Blocks; got != want {
		t.Fatalf("final blocks = %d, want %d", got, want)
	}
	// The drained snapshot renders exactly what a fresh summarize renders:
	// publishing never perturbs the aggregate itself.
	if final.RenderFigures() != core.SummarizeEOS(agg).Render() {
		t.Fatal("drained snapshot render differs from a direct summarize")
	}
}
