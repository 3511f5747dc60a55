package coord

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/retry"
)

// recorder is a slog.Handler that keeps every record's message and
// attributes, bound ones first, so tests assert on attributes rather than
// on formatted text.
type recorder struct {
	mu    *sync.Mutex
	recs  *[]record
	bound []slog.Attr
}

type record struct {
	msg   string
	attrs []slog.Attr
}

func newRecorder() recorder { return recorder{mu: new(sync.Mutex), recs: new([]record)} }

func (r recorder) Enabled(context.Context, slog.Level) bool { return true }
func (r recorder) WithGroup(string) slog.Handler            { return r }

func (r recorder) WithAttrs(as []slog.Attr) slog.Handler {
	r.bound = append(slices.Clip(r.bound), as...)
	return r
}

func (r recorder) Handle(_ context.Context, rec slog.Record) error {
	attrs := slices.Clone(r.bound)
	rec.Attrs(func(a slog.Attr) bool {
		attrs = append(attrs, a)
		return true
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	*r.recs = append(*r.recs, record{rec.Message, attrs})
	return nil
}

func (r recorder) records() []record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(*r.recs)
}

// get returns the value of key and how many attributes carry that key.
func (rec record) get(key string) (string, int) {
	var val string
	n := 0
	for _, a := range rec.attrs {
		if a.Key == key {
			val, n = a.Value.String(), n+1
		}
	}
	return val, n
}

func (rec record) String() string { return fmt.Sprint(rec.msg, " ", rec.attrs) }

// TestRunRecordsCarryTaskAttributes: the attributes a coordinated run binds
// reach every record, once each. Every record of Run carries chain, owner
// and epoch; every one a task emits also carries task and fence, the
// relaunch record carries attempt, and every record of a worker carries
// chain, task and fence.
func TestRunRecordsCarryTaskAttributes(t *testing.T) {
	fx := newEOSFixture(t, 30)
	head := fx.head(t)
	store := blobstore.NewMemory()
	runLog, workerLog := newRecorder(), newRecorder()
	var failOnce sync.Once
	_, err := Run(context.Background(), Config{
		Chain: "eos", From: 1, To: head, Shards: 3,
		Store: store,
		Owner: "recorded",
		Retry: retry.Policy{Attempts: 3, Base: time.Millisecond},
		Log:   slog.New(runLog),
		Run: func(ctx context.Context, task Task) error {
			failed := false
			if task.Index == 2 {
				failOnce.Do(func() { failed = true })
			}
			if failed {
				return errors.New("worker died")
			}
			kit, err := core.NewStatsKit(task.Chain, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				return err
			}
			_, err = RunShardCrawl(ctx, CrawlerConfig{
				Kit: kit, Fetcher: fx.fetcher(),
				From: task.From, To: task.To, Store: store,
				CheckpointEvery: 4, Workers: 2,
				Fence: task.Fence,
				Log:   slog.New(workerLog),
			})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	once := func(rec record, keys ...string) {
		t.Helper()
		for _, key := range keys {
			if _, n := rec.get(key); n != 1 {
				t.Errorf("record %v carries %s %d times, want once", rec, key, n)
			}
		}
	}
	relaunched, validated := 0, 0
	for _, rec := range runLog.records() {
		once(rec, "chain", "owner", "epoch")
		if rec.msg == "elected active" {
			continue
		}
		once(rec, "task", "fence")
		if rec.msg == "attempt failed; relaunching" {
			relaunched++
			once(rec, "attempt", "err")
			if err, _ := rec.get("err"); !strings.Contains(err, "worker died") {
				t.Errorf("relaunch record %v does not carry the attempt's error", rec)
			}
		}
		if rec.msg == "shard validated" {
			validated++
		}
	}
	if relaunched != 1 || validated != 3 {
		t.Errorf("run logged %d relaunches and %d validations, want 1 and 3:\n%v", relaunched, validated, runLog.records())
	}
	workerRecs := workerLog.records()
	if len(workerRecs) == 0 {
		t.Fatal("workers logged nothing")
	}
	for _, rec := range workerRecs {
		once(rec, "chain", "task", "fence")
	}
}

// TestRunRefusesTTLWithoutARenewInterval: leases renew at a third of their
// TTL, so a TTL under 3 ns leaves no interval to renew at. Run refuses it,
// naming the TTL, before it touches the store, instead of panicking in
// time.NewTicker once the run lease is held.
func TestRunRefusesTTLWithoutARenewInterval(t *testing.T) {
	store := blobstore.NewMemory()
	_, err := Run(context.Background(), Config{
		Chain: "eos", From: 1, To: 30, Shards: 3,
		Store:    store,
		LeaseTTL: 2 * time.Nanosecond,
		Run:      func(context.Context, Task) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "lease TTL 2ns") {
		t.Fatalf("Run with a 2ns lease TTL = %v, want a refusal naming it", err)
	}
	if keys, err := store.List(context.Background(), ""); err != nil || len(keys) != 0 {
		t.Errorf("refused run left %v in the store (%v)", keys, err)
	}
}
