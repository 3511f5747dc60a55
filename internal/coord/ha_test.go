// High-availability tests: multi-coordinator lease contention, fence
// enforcement against zombie emissions, resuming from the run plan and
// the lease lineage, and the live progress export.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/retry"
)

// liveOwners reports which contenders hold a verifiably live lease on
// task: the store record exists, carries their nonce, and its deadline
// has not passed. Probes go to the base store so fault injection on the
// contenders' wrapped store cannot blind the invariant check.
func liveOwners(t *testing.T, base blobstore.Store, clk *fakeClock, task string, recs map[string]*LeaseRecord) []string {
	t.Helper()
	probe := newTestLeases(base, "probe", clk)
	cur, ok, err := probe.get(context.Background(), task)
	if err != nil || !ok {
		return nil
	}
	var live []string
	for owner, rec := range recs {
		if rec != nil && cur.Nonce == rec.Nonce && clk.now().Before(cur.Deadline) {
			live = append(live, owner)
		}
	}
	return live
}

// TestLeaseContentionTwoCoordinators walks two coordinators with distinct
// owners through every contention transition — claim vs claim, renew
// under contention, expiry reclaim, release race — asserting after every
// step that exactly one (or, where expected, zero) of them holds a
// verifiably live lease.
func TestLeaseContentionTwoCoordinators(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	clk := &fakeClock{t: time.Unix(5000, 0)}
	a := newTestLeases(store, "alpha", clk)
	b := newTestLeases(store, "beta", clk)
	const task = "eos-0000000001-0000000050"
	recs := map[string]*LeaseRecord{}

	expect := func(step string, want ...string) {
		t.Helper()
		got := liveOwners(t, store, clk, task, recs)
		if len(got) != len(want) || (len(want) == 1 && got[0] != want[0]) {
			t.Fatalf("%s: live owners %v, want %v", step, got, want)
		}
	}

	// alpha claims; beta is refused while the lease is live.
	rec, err := a.Claim(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	recs["alpha"] = &rec
	expect("after alpha claim", "alpha")
	var held *ErrHeld
	if _, err := b.Claim(ctx, task); !errors.As(err, &held) {
		t.Fatalf("beta claim on live lease: %v, want *ErrHeld", err)
	}
	expect("after beta refused", "alpha")

	// alpha renews mid-TTL; still exactly one owner.
	clk.t = clk.t.Add(30 * time.Second)
	if err := a.Renew(ctx, recs["alpha"]); err != nil {
		t.Fatal(err)
	}
	expect("after alpha renew", "alpha")

	// alpha goes silent past its deadline; beta reclaims with the attempt
	// lineage (the fence) bumped, and alpha's copy goes dead.
	clk.t = clk.t.Add(2 * time.Minute)
	expect("after alpha expiry") // zero live owners: record expired
	brec, err := b.Claim(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if brec.Attempt != recs["alpha"].Attempt+1 {
		t.Fatalf("reclaim attempt %d, want %d", brec.Attempt, recs["alpha"].Attempt+1)
	}
	recs["beta"] = &brec
	expect("after beta reclaim", "beta")

	// The zombie's renew and release are both detected/no-ops, never a
	// second live owner.
	var lost *ErrLost
	if err := a.Renew(ctx, recs["alpha"]); !errors.As(err, &lost) {
		t.Fatalf("zombie renew: %v, want *ErrLost", err)
	}
	if err := a.Release(ctx, *recs["alpha"]); err != nil {
		t.Fatal(err)
	}
	recs["alpha"] = nil
	expect("after zombie release", "beta")

	if err := b.Release(ctx, *recs["beta"]); err != nil {
		t.Fatal(err)
	}
	expect("after beta release") // zero: the record stays, expired
	recs["beta"] = nil
}

// TestLeaseContentionConcurrent hammers one lease per round with several
// contenders claiming simultaneously. The advisory protocol lets more than
// one racer believe it won within a single store round-trip; the invariant
// is that the race is always DETECTED: once the dust settles, exactly one
// contender's renew succeeds and every other apparent winner gets
// *ErrLost.
func TestLeaseContentionConcurrent(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	const contenders, rounds = 4, 25
	ls := make([]*Leases, contenders)
	for i := range ls {
		ls[i] = NewLeases(store, fmt.Sprintf("coord-%d", i), time.Minute)
	}
	for round := 0; round < rounds; round++ {
		task := fmt.Sprintf("race-%04d", round)
		wins := make([]*LeaseRecord, contenders)
		var wg sync.WaitGroup
		for i := range ls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if rec, err := ls[i].Claim(ctx, task); err == nil {
					wins[i] = &rec
				} else if !errors.As(err, new(*ErrHeld)) {
					t.Errorf("round %d: contender %d: %v", round, i, err)
				}
			}(i)
		}
		wg.Wait()
		live, holder := 0, -1
		for i, rec := range wins {
			if rec == nil {
				continue
			}
			if err := ls[i].Renew(ctx, rec); err == nil {
				live, holder = live+1, i
			} else if !errors.As(err, new(*ErrLost)) {
				t.Fatalf("round %d: settle renew: %v", round, err)
			}
		}
		if live != 1 {
			t.Fatalf("round %d: %d live owners after settling, want exactly 1", round, live)
		}
		if err := ls[holder].Release(ctx, *wins[holder]); err != nil {
			t.Fatalf("round %d: release: %v", round, err)
		}
	}
}

// TestLeaseContentionChaos replays the two-coordinator contention walk
// with injected store faults: operations are retried through the shared
// policy, and the exactly-one-live-owner invariant (probed against the
// unwrapped base store) must hold after every settled step.
func TestLeaseContentionChaos(t *testing.T) {
	ctx := context.Background()
	base := blobstore.NewMemory()
	faulty := blobstore.NewFaulty(base)
	faulty.Chaos(11, 0.05)
	clk := &fakeClock{t: time.Unix(5000, 0)}
	a := newTestLeases(faulty, "alpha", clk)
	b := newTestLeases(faulty, "beta", clk)
	const task = "eos-0000000001-0000000050"
	recs := map[string]*LeaseRecord{}

	// claim retries transient injected faults; *ErrHeld surfaces.
	claim := func(l *Leases) (LeaseRecord, error) {
		var rec LeaseRecord
		pol := retry.Policy{Attempts: 10, Base: time.Microsecond}
		err := pol.Do(ctx, "claim", func(ctx context.Context) error {
			var cerr error
			rec, cerr = l.Claim(ctx, task)
			if cerr != nil && errors.As(cerr, new(*ErrHeld)) {
				return retry.Permanent(cerr)
			}
			return cerr
		})
		return rec, err
	}
	expect := func(step string, want ...string) {
		t.Helper()
		got := liveOwners(t, base, clk, task, recs)
		if len(got) != len(want) || (len(want) == 1 && got[0] != want[0]) {
			t.Fatalf("%s: live owners %v, want %v", step, got, want)
		}
	}

	rec, err := claim(a)
	if err != nil {
		t.Fatalf("alpha claim under chaos: %v", err)
	}
	recs["alpha"] = &rec
	expect("after alpha claim", "alpha")

	if _, err := claim(b); !errors.As(err, new(*ErrHeld)) {
		t.Fatalf("beta claim on live lease under chaos: %v, want *ErrHeld", err)
	}
	expect("after beta refused", "alpha")

	clk.t = clk.t.Add(2 * time.Minute)
	brec, err := claim(b)
	if err != nil {
		t.Fatalf("beta reclaim under chaos: %v", err)
	}
	recs["beta"] = &brec
	if brec.Attempt <= recs["alpha"].Attempt {
		t.Fatalf("reclaim did not advance the fence lineage: %d -> %d", recs["alpha"].Attempt, brec.Attempt)
	}
	recs["alpha"] = nil
	expect("after beta reclaim", "beta")
}

// TestValidateShardFence pins the two fence-mismatch verdicts: a blob
// with an OLDER fence than the task's lease is a retryable zombie clobber
// (relaunching rewrites it), a blob with a NEWER fence means this
// coordinator is the zombie and must stand down permanently.
func TestValidateShardFence(t *testing.T) {
	ctx := context.Background()
	fx := newEOSFixture(t, 10)
	head := fx.head(t)
	store := blobstore.NewMemory()

	task := Task{Index: 1, N: 1, Chain: "eos", From: 1, To: head, Fence: 2}
	emit := func(fence uint64) {
		t.Helper()
		kit := fx.kit(t)
		if _, _, err := core.IngestCrawl(ctx, fx.fetcher(),
			collect.CrawlConfig{From: 1, To: head, Workers: 2}, kit.Decoder, core.IngestConfig{}); err != nil {
			t.Fatal(err)
		}
		st := kit.State()
		st.SetCovered(core.BlockRange{From: 1, To: head})
		blob, err := core.EncodeShard(st, fence)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(ctx, shardKey(task.Name()), blob); err != nil {
			t.Fatal(err)
		}
	}

	emit(1) // stale: a superseded worker's emission
	_, err := validateShard(ctx, store, task)
	if err == nil || !strings.Contains(err.Error(), "stale emission") {
		t.Fatalf("stale fence: %v, want a stale-emission refusal", err)
	}
	if retry.IsPermanent(err) {
		t.Fatal("stale fence must be retryable: relaunching rewrites the blob")
	}

	emit(2) // exact: ours
	if _, err := validateShard(ctx, store, task); err != nil {
		t.Fatalf("matching fence refused: %v", err)
	}

	emit(3) // newer: we are the zombie
	_, err = validateShard(ctx, store, task)
	if err == nil || !strings.Contains(err.Error(), "superseded") {
		t.Fatalf("newer fence: %v, want a superseded refusal", err)
	}
	if !retry.IsPermanent(err) {
		t.Fatal("newer fence must be permanent: retrying under a stale lease only wastes work")
	}
}

// TestStaleFenceRefusedOnEveryChain: on every chain, a shard fenced below
// its task's lease is refused both by slice validation and by the fold's
// fence floors.
func TestStaleFenceRefusedOnEveryChain(t *testing.T) {
	ctx := context.Background()
	for _, c := range []string{"eos", "tezos", "xrp"} {
		t.Run(c, func(t *testing.T) {
			store := blobstore.NewMemory()
			putShard(t, store, shardOf(t, c, 1, 10), 1)
			task := Task{Index: 1, N: 1, Chain: c, From: 1, To: 10, Fence: 2}
			if _, err := validateShard(ctx, store, task); err == nil || !strings.Contains(err.Error(), "stale emission") {
				t.Errorf("validating a fence-1 shard under fence 2: %v, want a stale-emission refusal", err)
			}
			blobs, err := loadShards(ctx, store, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := mergeShards(blobs, false, map[string]uint64{task.Name(): 2}); err == nil || !strings.Contains(err.Error(), "stale emission") {
				t.Errorf("folding a fence-1 shard over floor 2: %v, want a stale-emission refusal", err)
			}
		})
	}
}

// TestCoordinatorZombieFenceRefused is the end-to-end zombie story: a
// partial run leaves its plan and its lease records (the fence floors)
// behind; a zombie worker then overwrites a validated shard with an
// unfenced emission.
// The merge must refuse the stale blob by name, and a resumed coordinator
// must detect the clobber, relaunch the slice under a newer fence, and
// finish with figures byte-identical to the oracle.
func TestCoordinatorZombieFenceRefused(t *testing.T) {
	const blocks = 45
	fx := newEOSFixture(t, blocks)
	head := fx.head(t)
	store := blobstore.NewMemory()
	ctx := context.Background()

	run := inProcessWorker(fx, store, 0)
	cfg := Config{
		Chain: "eos", From: 1, To: head, Shards: 3,
		Store: store,
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			if task.Index == 3 {
				return fmt.Errorf("endpoint dark for now")
			}
			return run(ctx, task)
		},
	}
	res, err := Run(ctx, cfg)
	if err == nil || len(res.Completed) != 2 {
		t.Fatalf("partial run: completed %d, err %v", len(res.Completed), err)
	}

	// Zombie: overwrite slice 1's validated shard with an unfenced
	// re-emission of the same content — what a superseded worker that
	// never heard of the reclaim would Put.
	victim := res.Completed[0]
	key := shardKey(victim.Name())
	raw, err := store.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.DecodeShard(raw)
	if err != nil {
		t.Fatal(err)
	}
	unfenced, err := core.EncodeShard(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, key, unfenced); err != nil {
		t.Fatal(err)
	}

	// The store's surviving lineage (the released lease records) still
	// carries the floor: a join of the store refuses the zombie blob by
	// name.
	floors := make(map[string]uint64)
	if err := fenceIndex(ctx, store, floors); err != nil {
		t.Fatal(err)
	}
	if floors[victim.Name()] == 0 {
		t.Fatalf("fence index lost the floor for %s: %v", victim.Name(), floors)
	}
	if _, err := Join(ctx, []blobstore.Store{store}, nil); err == nil ||
		!strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), "stale emission") {
		t.Fatalf("join of zombie blob: %v, want a refusal naming %s", err, key)
	}

	// A replacement coordinator resumes, detects the clobbered slice (the
	// blob fails validation at its lease record's fence), relaunches it
	// under a fresh lease, and completes byte-identical to the oracle.
	cfg.Run = run // slice 3's endpoint is back
	res2, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !res2.Resumed {
		t.Fatal("second run did not resume from run state")
	}
	if got, want := res2.Merged.Summary().Render(), fx.oracle(t, head); got != want {
		t.Errorf("figures after zombie recovery differ from oracle:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, ok, _ := LoadRunState(ctx, store, "eos"); ok {
		t.Fatal("fully successful resume left run state behind")
	}
}

// TestCoordinatorResumeFromRunState: a run interrupted by failed slices
// leaves its plan; a replacement coordinator adopts the pinned range
// (never re-pinning head), skips the slices whose shards validate at their
// lease records' fences without refetching a single block of them, and
// re-attempts only the failures.
func TestCoordinatorResumeFromRunState(t *testing.T) {
	const blocks = 45
	fx := newEOSFixture(t, blocks)
	head := fx.head(t)
	store := blobstore.NewMemory()
	ctx := context.Background()

	run := inProcessWorker(fx, store, 0)
	res, err := Run(ctx, Config{
		Chain: "eos", From: 1, To: head, Shards: 3,
		Store: store,
		Owner: "coordinator-1",
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			if task.Index == 2 {
				return fmt.Errorf("endpoint dark for now")
			}
			return run(ctx, task)
		},
	})
	if err == nil || len(res.Completed) != 2 || len(res.Failed) != 1 {
		t.Fatalf("first run: completed %d failed %d err %v", len(res.Completed), len(res.Failed), err)
	}
	prev, ok, err := LoadRunState(ctx, store, "eos")
	if err != nil || !ok {
		t.Fatalf("no run plan after partial run: %v", err)
	}
	if prev.To != head || prev.Owner != "coordinator-1" {
		t.Fatalf("run plan %+v", prev)
	}

	// Replacement coordinator: To is zero, so without the plan it would
	// re-pin head — PinHead failing loudly proves the planned range won.
	fx.mu.Lock()
	fx.fetched = make(map[int64]int)
	fx.mu.Unlock()
	res2, err := Run(ctx, Config{
		Chain: "eos", From: 1, Shards: 0, // adopted from the plan
		Store: store,
		Owner: "coordinator-2",
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run:   run,
		PinHead: func(ctx context.Context) (int64, error) {
			return 0, fmt.Errorf("head must not be re-pinned on resume")
		},
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !res2.Resumed || len(res2.Completed) != 3 {
		t.Fatalf("resumed run: resumed=%v completed=%d", res2.Resumed, len(res2.Completed))
	}
	// Only the failed slice's blocks were refetched: done slices were
	// skipped on validation at their lease records' fences alone.
	failed := res.Failed[0].Task
	fx.mu.Lock()
	for num, n := range fx.fetched {
		if n > 0 && (num < failed.From || num > failed.To) {
			fx.mu.Unlock()
			t.Fatalf("resume refetched block %d outside the failed slice [%d, %d]", num, failed.From, failed.To)
		}
	}
	fx.mu.Unlock()
	if got, want := res2.Merged.Summary().Render(), fx.oracle(t, head); got != want {
		t.Errorf("resumed figures differ from oracle:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, ok, _ := LoadRunState(ctx, store, "eos"); ok {
		t.Fatal("fully successful resume left run state behind")
	}
}

// TestCoordinatorRunStateConflictIsLoud: a plan pinning one range refuses
// a coordinator explicitly configured for another, instead of silently
// adopting either.
func TestCoordinatorRunStateConflictIsLoud(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	if err := saveRunState(ctx, store, &RunState{Chain: "eos", From: 1, To: 100, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(ctx, Config{
		Chain: "eos", From: 1, To: 50, Shards: 2,
		Store: store,
		Retry: retry.Policy{Attempts: 1, Base: time.Millisecond},
		Run:   func(ctx context.Context, t Task) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "delete "+RunStateKey("eos")) {
		t.Fatalf("conflicting pinned range: %v, want a loud conflict naming the run state key", err)
	}
}

// TestCoordinatorAbandonedPlanFencesClimb: deleting a partial run's plan
// abandons the run but not its lease lineage. The rerun cuts afresh, yet
// every fence it grants sits above the abandoned run's records, so a shard
// a worker of the abandoned run emits late is refused at validation.
func TestCoordinatorAbandonedPlanFencesClimb(t *testing.T) {
	const blocks = 45
	fx := newEOSFixture(t, blocks)
	head := fx.head(t)
	store := blobstore.NewMemory()
	ctx := context.Background()

	run := inProcessWorker(fx, store, 0)
	cfg := Config{
		Chain: "eos", From: 1, To: head, Shards: 3,
		Store: store,
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			if task.Index == 3 {
				return fmt.Errorf("endpoint dark for now")
			}
			return run(ctx, task)
		},
	}
	res, err := Run(ctx, cfg)
	if err == nil || len(res.Completed) != 2 {
		t.Fatalf("partial run: completed %d, err %v", len(res.Completed), err)
	}
	old := make(map[string]uint64)
	if err := fenceIndex(ctx, store, old); err != nil {
		t.Fatal(err)
	}
	victim := res.Completed[0]
	abandoned, err := store.Get(ctx, shardKey(victim.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ctx, RunStateKey("eos")); err != nil { // abandon the run
		t.Fatal(err)
	}

	// The rerun: the victim's first attempt is the abandoned run's worker
	// landing its shard late, in place of this run's worker.
	var (
		mu      sync.Mutex
		fences  = make(map[string]uint64)
		zombied bool
		log     = newRecorder()
	)
	cfg.Log = slog.New(log)
	cfg.Run = func(ctx context.Context, task Task) error {
		mu.Lock()
		fences[task.Name()] = task.Fence
		zombie := task.Name() == victim.Name() && !zombied
		zombied = zombied || zombie
		mu.Unlock()
		if zombie {
			return store.Put(ctx, shardKey(task.Name()), abandoned)
		}
		return run(ctx, task)
	}
	res2, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("rerun after abandoning the plan: %v\n%v", err, log.records())
	}
	if res2.Resumed {
		t.Fatal("rerun resumed a plan that was deleted")
	}
	for _, task := range res2.Tasks {
		if got, floor := fences[task.Name()], old[task.Name()]; floor == 0 || got <= floor {
			t.Errorf("%s: rerun fence %d, want above the abandoned run's record %d", task.Name(), got, floor)
		}
	}
	if !slices.ContainsFunc(log.records(), func(rec record) bool {
		err, _ := rec.get("err")
		return rec.msg == "attempt failed; relaunching" && strings.Contains(err, "stale emission")
	}) {
		t.Errorf("the abandoned run's shard was not refused at validation:\n%v", log.records())
	}
	if got, want := res2.Merged.Summary().Render(), fx.oracle(t, head); got != want {
		t.Errorf("figures after the rerun differ from oracle:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRunStateStampedByLeaseClock: the tracker stamps every snapshot of
// its task table with its Leases' clock, so a run driven by a fixed clock
// publishes that instant — not the wall clock's — after each transition,
// and the run state it keeps leaves nothing in the store.
func TestRunStateStampedByLeaseClock(t *testing.T) {
	store := blobstore.NewMemory()
	clk := &fakeClock{t: time.Unix(5000, 0)}
	progress := &ProgressTracker{}
	task := Task{Index: 1, N: 1, Chain: "eos", From: 1, To: 100}
	tr := newRunTracker(Config{Chain: "eos", From: 1, To: 100, Progress: progress},
		[]Task{task}, 1, newTestLeases(store, "alpha", clk).clock)
	if got := progress.Snapshot(); got == nil || !got.UpdatedAt.Equal(clk.t) {
		t.Fatalf("first snapshot %+v, want one stamped %v", got, clk.t)
	}
	clk.t = clk.t.Add(90 * time.Second)
	tr.update(task, func(r *TaskProgress) { r.State = TaskRunning })
	got := progress.Snapshot()
	if !got.UpdatedAt.Equal(clk.t) {
		t.Fatalf("transition stamped %v, the lease clock reads %v", got.UpdatedAt, clk.t)
	}
	if len(got.Tasks) != 1 || got.Tasks[0].State != TaskRunning {
		t.Fatalf("snapshot tasks %+v, want the one task running", got.Tasks)
	}
	if n := store.Ops(blobstore.OpPut); n != 0 {
		t.Fatalf("the tracker wrote %d objects; its run state lives in memory", n)
	}
}

// TestFenceIndex: floors fold from lease records, a released lease keeps
// its floor, and corrupt records are loud.
func TestFenceIndex(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	clk := &fakeClock{t: time.Unix(5000, 0)}
	l := newTestLeases(store, "alpha", clk)
	if _, err := l.Claim(ctx, "eos-0000000001-0000000050"); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Claim(ctx, "eos-0000000001-0000000050") // attempt 2
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(ctx, rec); err != nil {
		t.Fatal(err)
	}
	index := map[string]uint64{"eos-0000000051-0000000100": 5}
	if err := fenceIndex(ctx, store, index); err != nil {
		t.Fatal(err)
	}
	if index["eos-0000000001-0000000050"] != 2 { // the released lease's lineage
		t.Fatalf("index = %v, want lease lineage 2 for slice 1", index)
	}
	if index["eos-0000000051-0000000100"] != 5 { // a floor from another store stays
		t.Fatalf("index = %v, want the floor 5 already held for slice 2", index)
	}
	if err := store.Put(ctx, leaseKey("torn-task"), []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	if err := fenceIndex(ctx, store, index); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("fence index over a corrupt lease: %v, want a loud refusal", err)
	}
}

// TestProgressExport drives the live progress endpoint through a real
// coordinated run: 503 with epoch 0 before election, parseable mid-run
// snapshots in the GapReport shape, and a final snapshot accounting for
// the degraded slice. The run reads a fixed lease clock, and every
// snapshot is stamped by it — not by the wall clock, and never left zero.
func TestProgressExport(t *testing.T) {
	const blocks = 30
	fx := newEOSFixture(t, blocks)
	head := fx.head(t)
	store := blobstore.NewMemory()
	clock := time.Unix(5000, 0).UTC()
	leaseNow = func() time.Time { return clock }
	t.Cleanup(func() { leaseNow = time.Now })

	tracker := &ProgressTracker{}
	h := NewProgressHandler(tracker)
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/progress", nil))
		return w
	}

	// Before the first snapshot: alive but empty-handed.
	if w := get(); w.Code != http.StatusServiceUnavailable || w.Header().Get("X-Coord-Epoch") != "0" {
		t.Fatalf("before first snapshot: %d epoch %q, want 503 epoch 0", w.Code, w.Header().Get("X-Coord-Epoch"))
	}

	// Mid-run: after the first slice lands, the snapshot must parse as a
	// GapReport-shaped Progress with the remaining slices missing.
	run := inProcessWorker(fx, store, 0)
	var midChecked sync.Once
	res, err := Run(context.Background(), Config{
		Chain: "eos", From: 1, To: head, Shards: 3,
		Store:    store,
		Owner:    "progress-test",
		Progress: tracker,
		Retry:    retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			if task.Index == 3 {
				return fmt.Errorf("endpoint permanently dark")
			}
			return run(ctx, task)
		},
		AfterTaskDone: func(task Task) {
			midChecked.Do(func() {
				w := get()
				if w.Code != http.StatusOK {
					t.Errorf("mid-run progress: %d", w.Code)
					return
				}
				var p Progress
				if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
					t.Errorf("mid-run progress does not parse: %v\n%s", err, w.Body.String())
					return
				}
				if p.Report.Chain != "eos" || p.Report.From != 1 || p.Report.To != head {
					t.Errorf("mid-run report header: %+v", p.Report)
				}
				if p.Report.Complete {
					t.Error("mid-run report claims completion")
				}
				if len(p.Tasks) != 3 {
					t.Errorf("mid-run tasks: %+v", p.Tasks)
				}
				if w.Header().Get("X-Coord-Epoch") == "0" {
					t.Error("mid-run epoch still 0")
				}
				if !p.UpdatedAt.Equal(clock) {
					t.Errorf("mid-run snapshot stamped %v, the lease clock reads %v", p.UpdatedAt, clock)
				}
			})
		},
	})
	if err == nil {
		t.Fatal("run with a dead slice reported success")
	}

	// Final snapshot: the failed slice is missing and named in failures,
	// and the epoch header matches the run's election.
	w := get()
	var p Progress
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatalf("final progress: %v", err)
	}
	if p.Epoch != res.Epoch || w.Header().Get("X-Coord-Epoch") != fmt.Sprint(res.Epoch) {
		t.Fatalf("epoch %d header %q, want %d", p.Epoch, w.Header().Get("X-Coord-Epoch"), res.Epoch)
	}
	if !p.UpdatedAt.Equal(clock) {
		t.Errorf("final snapshot stamped %v, the lease clock reads %v", p.UpdatedAt, clock)
	}
	failed := res.Failed[0].Task
	if len(p.Report.Missing) != 1 || p.Report.Missing[0].From != failed.From || p.Report.Missing[0].To != failed.To {
		t.Fatalf("final missing %+v, want the failed slice [%d, %d]", p.Report.Missing, failed.From, failed.To)
	}
	if len(p.Report.Failures) != 1 || !strings.Contains(p.Report.Failures[0].Error, "permanently dark") {
		t.Fatalf("final failures %+v", p.Report.Failures)
	}
	for _, tp := range p.Tasks {
		want := TaskDone
		if tp.Index == failed.Index {
			want = TaskFailed
		}
		if tp.State != want {
			t.Errorf("task %s state %q, want %q", tp.Task, tp.State, want)
		}
		if want == TaskDone && tp.Fence == 0 {
			t.Errorf("done task %s carries no fence", tp.Task)
		}
	}
}
