package coord

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/retry"
)

// putShard seals st at fence and stores it under its slice's shard key, as
// RunShardCrawl would have emitted it.
func putShard(t *testing.T, store blobstore.Store, st core.ShardState, fence uint64) {
	t.Helper()
	blob, err := core.EncodeShard(st, fence)
	if err != nil {
		t.Fatal(err)
	}
	cov := st.Covered()
	if err := store.Put(context.Background(), shardKey(taskName(st.Chain(), cov.From, cov.To)), blob); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardsValidation exercises the merge's refusal matrix.
func TestMergeShardsValidation(t *testing.T) {
	mk := func(chainName string, from, to int64, origin time.Time, bucket time.Duration) shardBlob {
		st, err := core.NewShardState(chainName, origin, bucket)
		if err != nil {
			t.Fatal(err)
		}
		if from > 0 {
			st.SetCovered(core.BlockRange{From: from, To: to})
		}
		return shardBlob{store: "mem://validation", key: shardKey(taskName(chainName, from, to)), state: st}
	}
	o := chain.ObservationStart
	cases := []struct {
		name    string
		blobs   []shardBlob
		wantErr string
	}{
		{"empty", nil, "no shards"},
		{"chain mismatch", []shardBlob{mk("eos", 1, 10, o, time.Hour), mk("tezos", 11, 20, o, time.Hour)}, "different chains"},
		{"window mismatch", []shardBlob{mk("eos", 1, 10, o, time.Hour), mk("eos", 11, 20, o, 2*time.Hour)}, "mismatched windows"},
		{"unknown range", []shardBlob{mk("eos", 1, 10, o, time.Hour), mk("eos", 0, 0, o, time.Hour)}, "no covered block range"},
		{"overlap", []shardBlob{mk("eos", 1, 10, o, time.Hour), mk("eos", 10, 20, o, time.Hour)}, "overlap"},
		{"gap", []shardBlob{mk("eos", 1, 10, o, time.Hour), mk("eos", 12, 20, o, time.Hour)}, "gap"},
		{"contiguous ok", []shardBlob{mk("eos", 11, 20, o, time.Hour), mk("eos", 1, 10, o, time.Hour)}, ""},
		{"single ok", []shardBlob{mk("xrp", 5, 9, o, time.Hour)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := mergeShards(tc.blobs, false, nil)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestEmitShardCrossBackend: one slice crawled into a mem:// and a file://
// store emits byte-identical shards under the same key, and each reads back
// to the figures a serial ingest of the slice renders — the blob depends on
// the blocks and their fold order, never on the backend. (One fetch and one
// ingest worker pin the order: float moments summed in another order differ
// in their last bits, which the figures round away.)
func TestEmitShardCrossBackend(t *testing.T) {
	ctx := context.Background()
	const from, to = 1, 32
	fx := newChainFixture("tezos", from, to)
	want := fx.suffixRenders(t, from, to)[from]
	var blobs [][]byte
	for _, loc := range []string{"mem://shard-cross-backend", "file://" + t.TempDir()} {
		store, err := blobstore.Resolve(loc)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunShardCrawl(ctx, CrawlerConfig{
			Kit: fx.kit(t), Fetcher: fx.fetcher(nil),
			From: from, To: to, Store: store, Workers: 1, Ingest: 1,
		})
		if err != nil {
			t.Fatalf("crawl into %s: %v", loc, err)
		}
		loaded, err := loadShards(ctx, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != 1 || loaded[0].key != out.ShardKey {
			t.Fatalf("%s holds %d shard(s), want the one emitted under %s", loc, len(loaded), out.ShardKey)
		}
		if got := loaded[0].state.Summary().Render(); got != want {
			t.Fatalf("render diverged after a %s round-trip", loc)
		}
		blobs = append(blobs, loaded[0].raw)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("mem:// and file:// shard blobs differ (%d vs %d bytes)", len(blobs[0]), len(blobs[1]))
	}
}

// putRecorder is a store that remembers the key of every Put.
type putRecorder struct {
	blobstore.Store
	mu   sync.Mutex
	keys map[string]bool
}

func (s *putRecorder) Put(ctx context.Context, key string, data []byte) error {
	s.mu.Lock()
	s.keys[key] = true
	s.mu.Unlock()
	return s.Store.Put(ctx, key, data)
}

// TestStoreLayout pins, spelled out, every key a one-task run writes and the
// one it leaves behind: stores already on disk and bench/'s per-class store
// counters read these names. Each chunk is held back until the checkpoint
// above it lands, so the run writes one.
func TestStoreLayout(t *testing.T) {
	ctx := context.Background()
	const from, to, every = 1, 20, 8
	fx := newChainFixture("xrp", from, to)
	store := &putRecorder{Store: blobstore.NewMemory(), keys: make(map[string]bool)}
	gate := newChunkGate(to, every)
	_, err := Run(ctx, Config{
		Chain: "xrp", From: from, To: to, Shards: 1,
		Store: store,
		Retry: retry.Policy{Attempts: 1, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			_, err := RunShardCrawl(ctx, CrawlerConfig{
				Kit: fx.kit(t), Fetcher: fx.fetcher(gate.before),
				From: task.From, To: task.To, Store: store,
				CheckpointEvery: every, Fence: task.Fence,
				AfterCheckpoint: gate.after(nil),
			})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var written []string
	for key := range store.keys {
		written = append(written, key)
	}
	sort.Strings(written)
	if want := []string{
		"ckpt/xrp-0000000001-0000000020.state",
		"lease/run-xrp.lease",
		"lease/xrp-0000000001-0000000020.lease",
		"run/xrp.state",
		"xrp-0000000001-0000000020.shard",
	}; !reflect.DeepEqual(written, want) {
		t.Fatalf("a one-task run wrote %q, want %q", written, want)
	}
	left, err := store.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"xrp-0000000001-0000000020.shard"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("a finished run left %q, want only its shard %q", left, want)
	}
}

// hostileRunStates are run plans that parse as JSON but cannot be resumed:
// what a hand-edited record, or one an older binary wrote, could hold.
var hostileRunStates = map[string]string{
	"version 1 with tasks": `{"version":1,"chain":"eos","from":1,"to":10,"shards":2,"owner":"c","epoch":1,` +
		`"updated_at":"2026-01-01T00:00:00Z","tasks":{"eos-0000000001-0000000005":` +
		`{"index":1,"from":1,"to":5,"state":"done","fence":1,"shard_key":"eos-0000000001-0000000005.shard"}}}`,
	"zero shards":             `{"version":2,"chain":"eos","from":1,"to":10,"shards":0,"owner":"c"}`,
	"to below from":           `{"version":2,"chain":"eos","from":10,"to":1,"shards":2,"owner":"c"}`,
	"from below 1":            `{"version":2,"chain":"eos","from":0,"to":10,"shards":2,"owner":"c"}`,
	"more shards than blocks": `{"version":2,"chain":"eos","from":1,"to":10,"shards":11,"owner":"c"}`,
}

// TestLoadRunStateRefusesHostileRecords: a plan of the retired version, or
// one that pins no partition, is refused by key and store — as a corrupt
// lease is — before a coordinator resumes it, instead of surfacing later
// as an unnamed cut error. A join reads no plan, so it is unaffected.
func TestLoadRunStateRefusesHostileRecords(t *testing.T) {
	ctx := context.Background()
	key := RunStateKey("eos")
	for name, raw := range hostileRunStates {
		t.Run(name, func(t *testing.T) {
			store := blobstore.NewMemory()
			if err := store.Put(ctx, key, []byte(raw)); err != nil {
				t.Fatal(err)
			}
			_, _, err := LoadRunState(ctx, store, "eos")
			if err == nil || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), store.URL()) {
				t.Fatalf("LoadRunState = %v, want a refusal naming %s at %s", err, key, store.URL())
			}
			if strings.HasPrefix(name, "version 1") && !strings.Contains(err.Error(), "finish it with the binary that wrote it, or delete "+key) {
				t.Fatalf("LoadRunState = %v, want the version 1 refusal", err)
			}
			if _, err := Run(ctx, Config{
				Chain: "eos", From: 1, To: 10, Shards: 2,
				Store: store,
				Retry: retry.Policy{Attempts: 1, Base: time.Millisecond},
				Run:   func(context.Context, Task) error { return nil },
			}); err == nil || !strings.Contains(err.Error(), key) {
				t.Fatalf("Run over the record = %v, want it refused by key", err)
			}
			putShard(t, store, shardOf(t, "eos", 1, 10), 0)
			if _, err := Join(ctx, []blobstore.Store{store}, nil); err != nil {
				t.Fatalf("Join over the record = %v, want the plan ignored", err)
			}
		})
	}
}

// shardOf is an empty shard state of chain covering [from, to].
func shardOf(t *testing.T, chainName string, from, to int64) core.ShardState {
	t.Helper()
	st, err := core.NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCovered(core.BlockRange{From: from, To: to})
	return st
}

// FuzzLoadRunState: whatever a store hands back under a run-plan key,
// LoadRunState refuses it or returns a plan a coordinator can resume: one
// that cuts into its partition without error.
func FuzzLoadRunState(f *testing.F) {
	f.Add([]byte(`{"version":2,"chain":"eos","from":1,"to":10,"shards":2,"owner":"c"}`))
	for _, raw := range hostileRunStates {
		f.Add([]byte(raw))
	}
	// One store for the whole run: each input overwrites the one key first.
	store := blobstore.NewMemory()
	f.Fuzz(func(t *testing.T, raw []byte) {
		ctx := context.Background()
		if err := store.Put(ctx, RunStateKey("eos"), raw); err != nil {
			t.Fatal(err)
		}
		s, ok, err := LoadRunState(ctx, store, "eos")
		if err != nil || !ok {
			return
		}
		if s.Shards > 1<<16 {
			return // Cut allocates a task per shard: too many to walk per input
		}
		if _, err := (Config{Chain: s.Chain, From: s.From, To: s.To, Shards: s.Shards}).Cut(); err != nil {
			t.Fatalf("LoadRunState accepted %q, which does not cut: %v", raw, err)
		}
	})
}
