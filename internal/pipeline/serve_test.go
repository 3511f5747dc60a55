package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
)

// recordingSink is a SummarySink that records registrations and releases,
// safe for the concurrent Register calls the stage graph makes.
type recordingSink struct {
	mu        sync.Mutex
	summarize map[string]func() core.ChainSummary
	windows   map[string]core.Window
	released  map[string]bool
	failOn    string
}

func newRecordingSink() *recordingSink {
	return &recordingSink{
		summarize: make(map[string]func() core.ChainSummary),
		windows:   make(map[string]core.Window),
		released:  make(map[string]bool),
	}
}

func (s *recordingSink) Register(chain string, w core.Window, summarize func() core.ChainSummary) (func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if chain == s.failOn {
		return nil, fmt.Errorf("sink: refusing %q", chain)
	}
	if _, dup := s.summarize[chain]; dup {
		return nil, fmt.Errorf("sink: duplicate %q", chain)
	}
	s.summarize[chain] = summarize
	s.windows[chain] = w
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.released[chain] = true
	}, nil
}

func TestServeFeedWiring(t *testing.T) {
	agg := core.NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	base := agg.Decoder()
	summarize := func() core.ChainSummary { return core.SummarizeEOS(agg) }
	window := core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}

	t.Run("no sink passes through", func(t *testing.T) {
		var o Options
		dec, release, err := o.serveFeed("eos", window, summarize, base)
		if err != nil {
			t.Fatal(err)
		}
		if dec != base {
			t.Fatal("decoder changed without a sink")
		}
		release() // must be a safe no-op
	})

	t.Run("sink wraps and releases", func(t *testing.T) {
		sink := newRecordingSink()
		o := Options{Serve: sink}
		dec, release, err := o.serveFeed("eos", window, summarize, base)
		if err != nil {
			t.Fatal(err)
		}
		if dec == base {
			t.Fatal("decoder not wrapped for periodic merges")
		}
		// The wrapped decoder must keep the sharded + arena-recycling
		// surfaces the ingest pool type-asserts for.
		if _, ok := dec.(core.ShardedDecoder); !ok {
			t.Fatal("wrapped decoder lost ShardedDecoder")
		}
		if _, ok := dec.(core.BatchReleaser); !ok {
			t.Fatal("wrapped decoder lost BatchReleaser")
		}
		if sink.summarize["eos"] == nil {
			t.Fatal("summarize hook not registered")
		}
		if got := sink.windows["eos"]; !got.Equal(window) {
			t.Fatalf("registered window = %s, want %s", got, window)
		}
		release()
		if !sink.released["eos"] {
			t.Fatal("release not forwarded to the sink")
		}
	})

	t.Run("sink error fails the stage", func(t *testing.T) {
		sink := newRecordingSink()
		sink.failOn = "eos"
		o := Options{Serve: sink}
		if _, _, err := o.serveFeed("eos", window, summarize, base); err == nil {
			t.Fatal("sink error not propagated")
		}
	})
}

// TestPipelineServesAllStages runs a small pipeline with a serving sink and
// checks every stage registered, drained, and left a summarize hook whose
// figures match the stage's own aggregator — the pipeline-side contract the
// serving layer's snapshots build on.
func TestPipelineServesAllStages(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	sink := newRecordingSink()
	opts := DefaultOptions()
	opts.EOS.Scale = 400_000
	opts.Tezos.Scale = 6_400
	opts.XRP.Scale = 80_000
	opts.SkipGovernance = true
	opts.Serve = sink

	r, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, name := range []string{"eos", "tezos", "xrp"} {
		if sink.summarize[name] == nil {
			t.Fatalf("stage %q never registered", name)
		}
		if !sink.released[name] {
			t.Fatalf("stage %q never released (drained)", name)
		}
	}
	want := map[string]core.ChainSummary{
		"eos":   core.SummarizeEOS(r.EOS),
		"tezos": core.SummarizeTezos(r.Tezos),
		"xrp":   core.SummarizeXRP(r.XRP),
	}
	for name, w := range want {
		if got := sink.summarize[name]().Render(); got != w.Render() {
			t.Errorf("%s: served figures diverge from the stage aggregator's", name)
		}
	}
}
