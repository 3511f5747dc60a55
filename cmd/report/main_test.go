package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/wire"
)

func TestValidateParallel(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		set       bool
		replaying bool
		wantErr   string
	}{
		{name: "default no replay", n: 0, set: false, replaying: false},
		{name: "default with replay", n: 0, set: false, replaying: true},
		{name: "sweep with replay", n: 3, set: true, replaying: true},
		// The regression: an explicit -parallel 0 or negative used to be
		// accepted and silently degenerate to a single run.
		{name: "explicit zero", n: 0, set: true, replaying: true, wantErr: "not a sweep"},
		{name: "explicit negative", n: -2, set: true, replaying: true, wantErr: "not a sweep"},
		{name: "explicit zero without replay", n: 0, set: true, replaying: false, wantErr: "not a sweep"},
		{name: "sweep without replay", n: 3, set: true, replaying: false, wantErr: "needs -replay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateParallel(tc.n, tc.set, tc.replaying)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestReplayArchivesRangeMiss: a -from/-to window beyond an archive's
// blocks must skip it cleanly (no figures, no error) — the range open
// indexes zero blocks instead of failing, so a fleet-wide ranged replay
// tolerates archives that end before the window.
func TestReplayArchivesRangeMiss(t *testing.T) {
	loc := "mem://report-range-miss/eos"
	w, err := archive.NewWriter(archive.WriterConfig{Dir: loc, Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(1); num <= 8; num++ {
		if err := w.Append(num, []byte(`{"opaque":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := replayArchives(context.Background(), loc, 1, 0, 100, 200, cli.ShardSpec{}, "", &out); err != nil {
		t.Fatalf("ranged replay past the archive failed: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("ranged replay past the archive printed figures:\n%s", out.String())
	}
}

// TestValidateRange pins the replay-slice validation now served by
// internal/cli's ArchiveFlags in ModeReport — the CLI error contract this
// command had before the extraction.
func TestValidateRange(t *testing.T) {
	cases := []struct {
		name      string
		from, to  int64
		replaying bool
		wantErr   string
	}{
		{name: "unset no replay", replaying: false},
		{name: "unset with replay", replaying: true},
		{name: "range with replay", from: 10, to: 20, replaying: true},
		{name: "single block", from: 7, to: 7, replaying: true},
		{name: "range without replay", from: 10, to: 20, replaying: false, wantErr: "need -replay"},
		{name: "from only", from: 10, replaying: true, wantErr: "not a block range"},
		{name: "to only", to: 20, replaying: true, wantErr: "not a block range"},
		{name: "inverted", from: 20, to: 10, replaying: true, wantErr: "not a block range"},
		{name: "negative from", from: -1, to: 10, replaying: true, wantErr: "not a block range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var af cli.ArchiveFlags
			af.Register(flag.NewFlagSet("report", flag.ContinueOnError), cli.ModeReport)
			af.From, af.To = tc.from, tc.to
			if tc.replaying {
				af.Replay = "mem://validate-range"
			}
			err := af.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateShard(t *testing.T) {
	sharded := cli.ShardSpec{I: 1, N: 3}
	cases := []struct {
		name      string
		shard     cli.ShardSpec
		emit      string
		parallel  int
		replaying bool
		wantErr   string
	}{
		{name: "unset"},
		{name: "shard with replay", shard: sharded, replaying: true},
		{name: "emit with replay", emit: "mem://x", replaying: true},
		{name: "shard without replay", shard: sharded, wantErr: "need -replay"},
		{name: "emit without replay", emit: "mem://x", wantErr: "need -replay"},
		{name: "shard with parallel", shard: sharded, parallel: 2, replaying: true, wantErr: "-shard with -parallel"},
		{name: "bad emit store", emit: "gopher://x", replaying: true, wantErr: "unsupported scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateShard(tc.shard, tc.emit, tc.parallel, tc.replaying)
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

// TestReplayShardEmitMerge: the offline distributed path — three -shard
// i/3 replays of one archived crawl each emit their drained state, and
// merging the three shards renders byte-identical figures to a whole-
// archive replay.
func TestReplayShardEmitMerge(t *testing.T) {
	loc := "mem://report-shard-emit/eos"
	w, err := archive.NewWriter(archive.WriterConfig{Dir: loc, Chain: "eos", SegmentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	const total = 31
	for num := int64(total); num >= 1; num-- {
		blk := wire.EOSBlockJSON{
			BlockNum:  uint32(num),
			Timestamp: chain.ObservationStart.Add(time.Duration(num) * time.Minute).Format("2006-01-02T15:04:05.000"),
			Producer:  "eosio",
		}
		var trx wire.EOSTrxJSON
		trx.Status = "executed"
		trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
			Account: "eosio.token", Name: "transfer",
			Authorization: []map[string]string{{"actor": "alice"}},
			Data:          map[string]string{"from": "alice", "to": "bob", "quantity": "1.0000 EOS"},
		}}
		blk.Transactions = append(blk.Transactions, trx)
		raw, err := json.Marshal(blk)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(num, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var whole bytes.Buffer
	if err := replayArchives(context.Background(), loc, 2, 0, 0, 0, cli.ShardSpec{}, "", &whole); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(whole.String(), "--- eos figures ---") {
		t.Fatalf("whole replay printed no figures:\n%s", whole.String())
	}

	const store = "mem://report-shard-emit-shards"
	for i := 1; i <= 3; i++ {
		var out bytes.Buffer
		if err := replayArchives(context.Background(), loc, 2, 0, 0, 0, cli.ShardSpec{I: i, N: 3}, store, &out); err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
	}
	shards, err := core.LoadShards(context.Background(), openStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("loaded %d shards, want 3", len(shards))
	}
	merged, _, err := core.MergeShards(shards, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Summary().Render(); got != whole.String() {
		t.Fatalf("3-way sharded replay diverged from whole replay\n--- whole ---\n%s\n--- merged ---\n%s", whole.String(), got)
	}
}

// openStore resolves a store URL the test itself chose.
func openStore(t *testing.T, location string) blobstore.Store {
	t.Helper()
	store, err := blobstore.Resolve(location)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestFigureRenderer drives the -figure name check main runs before any
// stage starts: every advertised name resolves, a typo is refused.
func TestFigureRenderer(t *testing.T) {
	for _, name := range append(figureNames(), "ALL", "Stages") {
		if render, err := figureRenderer(name); err != nil || render == nil {
			t.Errorf("figureRenderer(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"nope", "", "10", "1 "} {
		_, err := figureRenderer(name)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("figureRenderer(%q) = %v, want an unknown-figure error", name, err)
		}
	}
}

// TestReplayWorkers: a plain replay ingests with the configured worker
// count (it used to get 1); only -parallel sweep runs vary it.
func TestReplayWorkers(t *testing.T) {
	cpus := runtime.GOMAXPROCS(0)
	cases := []struct {
		name               string
		i, sweeps, workers int
		want               int
	}{
		{"plain replay", 0, 0, 4, 4},
		{"plain replay, one per CPU", 0, 0, 0, 0},
		{"sweep first run", 0, 3, 4, 1},
		{"sweep third run", 2, 3, 4, 3},
		{"sweep reaches max", 3, 6, 4, 4},
		{"sweep wraps", 4, 6, 4, 1},
		{"sweep of one", 0, 1, 4, 1},
		{"sweep over CPUs wraps", cpus, cpus + 1, 0, 1},
	}
	for _, tc := range cases {
		if got := replayWorkers(tc.i, tc.sweeps, tc.workers); got != tc.want {
			t.Errorf("%s: replayWorkers(%d, %d, %d) = %d, want %d", tc.name, tc.i, tc.sweeps, tc.workers, got, tc.want)
		}
	}
}
