package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/retry"
)

// Task is one shard slice of the pinned block range: slice Index of N
// covers [From, To]. Fence is the lease attempt the task currently runs
// under — the token its worker must stamp into the emitted shard.
type Task struct {
	Index, N int
	Chain    string
	From, To int64
	Fence    uint64
}

// Name is the task's lease identity and log label —
// "eos-0000000001-0000000050", its shard key minus the suffix.
func (t Task) Name() string { return taskName(t.Chain, t.From, t.To) }

// TaskFailure records a slice that exhausted its retries (or hit a
// permanent error), with the terminal error.
type TaskFailure struct {
	Task Task
	Err  error
}

// Config parameterizes a coordinator run.
type Config struct {
	// Chain names the chain; From and To pin the full block range. To must
	// be concrete — the caller resolves head ONCE so every slice is cut
	// from the same span.
	Chain    string
	From, To int64
	// Shards is how many slices to cut the range into.
	Shards int
	// Store is the shared blob store: leases, worker checkpoints and shard
	// blobs all live in it.
	Store blobstore.Store
	// Owner names this coordinator in lease records (default
	// "coordinator").
	Owner string
	// LeaseTTL bounds how long a claimed slice may go without renewal
	// before another coordinator may reclaim it (default 2 minutes).
	LeaseTTL time.Duration
	// Retry is the per-slice relaunch policy: each attempt is one full
	// worker run. Its zero value means the retry package defaults
	// (4 attempts, 50 ms base backoff).
	Retry retry.Policy
	// Parallel bounds how many slices run workers concurrently (default:
	// all of them).
	Parallel int
	// Run launches one worker attempt for a task and blocks until it
	// exits. cmd/coordinate execs a subprocess (so chaos tests can SIGKILL
	// it); tests may run in-process. The attempt succeeded only if the
	// task's shard blob is then present and decodable — Run's nil error
	// alone is not believed.
	Run func(ctx context.Context, t Task) error
	// Log receives the run's records, each carrying chain, owner and epoch;
	// a task's also carry task and fence. Nil discards them.
	Log *slog.Logger

	// PinHead, when set, resolves the chain head lazily: it is consulted
	// only when To is zero AND no run plan exists — a takeover adopts the
	// interrupted run's pinned range instead of re-pinning, so every slice
	// is cut from the same span across coordinator generations.
	PinHead func(ctx context.Context) (int64, error)
	// RunLease, when set, is a run-level lease the caller already won
	// (a standby's Await) — Run adopts it instead of claiming its own.
	RunLease *LeaseRecord
	// Progress, when set, receives an immutable snapshot after every task
	// transition — the feed behind GET /v1/progress.
	Progress *ProgressTracker
	// AfterTaskDone, when set, runs once a task's shard validated and its
	// lease was released: its lease record and shard already say it is
	// done, so the chaos harness SIGKILLs the active coordinator here, at a
	// known-recoverable instant.
	AfterTaskDone func(t Task)
}

// Result is a coordinator run's outcome. Merged/Summary are present
// whenever at least one shard blob validated — even when slices failed —
// so a degraded run still renders partial figures next to its gap report.
type Result struct {
	Tasks     []Task
	Completed []Task
	Failed    []TaskFailure
	Merged    core.ShardState
	Report    GapReport
	// Epoch is the run-level election attempt this coordinator ran under.
	Epoch int
	// Resumed reports whether the run adopted an interrupted run's plan
	// instead of starting fresh.
	Resumed bool
}

// GapReport is the machine-readable account of what a degraded run is
// missing: the pinned range, the block ranges no validated shard covers,
// and per-failure detail. Complete runs carry an empty Missing list, so
// downstream tooling can always parse the same shape.
type GapReport struct {
	Chain string `json:"chain"`
	From  int64  `json:"from"`
	To    int64  `json:"to"`
	// Complete is true when every slice's shard validated and Missing is
	// empty.
	Complete bool `json:"complete"`
	// Missing lists the block ranges not covered by any validated shard,
	// ascending and non-adjacent.
	Missing []GapRange `json:"missing,omitempty"`
	// Failures names each failed slice and its terminal error.
	Failures []GapFailure `json:"failures,omitempty"`
}

// GapRange is one missing block range, inclusive on both ends.
type GapRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// GapFailure names one failed slice.
type GapFailure struct {
	Task  string `json:"task"`
	From  int64  `json:"from"`
	To    int64  `json:"to"`
	Error string `json:"error"`
}

// WriteJSON renders the report as indented JSON.
func (r GapReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Cut slices [cfg.From, cfg.To] into cfg.Shards contiguous tasks that tile
// the range exactly — no overlap, no gap — so the merge's range validation
// accepts any complete set of their shards.
func (cfg Config) Cut() ([]Task, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("coord: %d shards is not a partition", cfg.Shards)
	}
	tasks := make([]Task, 0, cfg.Shards)
	for i := 1; i <= cfg.Shards; i++ {
		lo, hi, err := cutSlice(i, cfg.Shards, cfg.From, cfg.To)
		if err != nil {
			return nil, fmt.Errorf("coord: %v", err)
		}
		tasks = append(tasks, Task{Index: i, N: cfg.Shards, Chain: cfg.Chain, From: lo, To: hi})
	}
	return tasks, nil
}

// cutSlice returns slice i of n (1 <= i <= n) of [from, to]. The first
// span%n slices take one extra block. A range with fewer blocks than
// slices is an error: the empty slices would emit nothing and the merge
// would read as a gap.
func cutSlice(i, n int, from, to int64) (int64, int64, error) {
	if from < 1 || to < from {
		return 0, 0, fmt.Errorf("cannot shard [%d, %d]: not a block range", from, to)
	}
	span := to - from + 1
	if span < int64(n) {
		return 0, 0, fmt.Errorf("cannot split %d blocks across %d shards: fewer blocks than shards", span, n)
	}
	base, rem := span/int64(n), span%int64(n)
	k := int64(i - 1)
	lo := from + k*base + min(k, rem)
	hi := lo + base - 1
	if k < rem {
		hi++
	}
	return lo, hi, nil
}

// Run drives the whole coordinated crawl: elect, resume-or-cut, claim,
// launch/relaunch, validate-as-they-arrive, merge. It returns a non-nil
// Result whenever the run got far enough to cut tasks; err is non-nil
// when ANY slice failed terminally (the caller decides whether partial
// figures are acceptable) or when the final merge itself refused.
//
// High availability: Run first wins the chain's run-level lease (or
// adopts cfg.RunLease, a standby's already-won election). A fresh run then
// writes its plan — the pinned range and shard count — once, before it
// claims any task lease; a takeover adopts an interrupted run's plan
// instead and reads each task's status off the store (see runTask). Task
// status otherwise lives in memory, published to cfg.Progress. A fully
// successful run retires the plan and every lease record it holds; a
// partial run leaves them behind, so the next coordinator re-attempts
// exactly the failed slices under fences above every one granted before.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Owner == "" {
		cfg.Owner = "coordinator"
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.LeaseTTL/3 <= 0 {
		return nil, fmt.Errorf("coord: lease TTL %v: leases renew at a third of it, which must be positive", cfg.LeaseTTL)
	}
	leases := NewLeases(cfg.Store, cfg.Owner, cfg.LeaseTTL)

	// Election: exactly one active coordinator per chain. The election
	// attempt count is the coordinator epoch: it grows monotonically across
	// takeovers, so progress pollers can detect a change of regime from the
	// X-Coord-Epoch header alone.
	var (
		runRec LeaseRecord
		err    error
	)
	if cfg.RunLease != nil {
		runRec = *cfg.RunLease
	} else if runRec, err = claimRetrying(ctx, cfg.Retry, leases, RunLeaseTask(cfg.Chain)); err != nil {
		return nil, err
	}
	epoch := runRec.Attempt
	log := orDiscard(cfg.Log).With("chain", cfg.Chain, "owner", cfg.Owner, "epoch", epoch)
	log.Info("elected active")

	// Keep the run lease renewed. Losing it means a standby decided we
	// were dead and took over: every in-flight worker must stop, and we
	// must stop writing — the plan Put and every retirement delete run
	// under rctx, which the loss cancels. On the way out the run lease is
	// released, or deleted once the run retired.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	runRenewDone := keepRenewed(rctx, log, leases, &runRec, cfg.LeaseTTL, cancel)
	retired := false
	defer func() {
		cancel(nil)
		<-runRenewDone
		closeLease(ctx, log, cfg, leases, runRec, retired)
	}()

	// Resume or pin: an interrupted run's plan wins over fresh
	// configuration — re-resolving head mid-run would cut different slices
	// and orphan every emitted shard. A caller that explicitly pinned a
	// DIFFERENT range than the plan gets a loud conflict, not a silent
	// adoption.
	plan, resumed, err := LoadRunState(rctx, cfg.Store, cfg.Chain)
	if err != nil {
		return nil, err
	}
	if resumed {
		if cfg.To != 0 && (plan.From != cfg.From || plan.To != cfg.To || plan.Shards != cfg.Shards) {
			return nil, fmt.Errorf("coord: run plan for %s pins [%d, %d] in %d shards, but this run was configured for [%d, %d] in %d; delete %s to abandon the interrupted run",
				cfg.Chain, plan.From, plan.To, plan.Shards, cfg.From, cfg.To, cfg.Shards, RunStateKey(cfg.Chain))
		}
		cfg.From, cfg.To, cfg.Shards = plan.From, plan.To, plan.Shards
		log.Info("resuming interrupted run", "from", cfg.From, "to", cfg.To, "shards", cfg.Shards, "pinned_by", plan.Owner)
	} else if cfg.To == 0 {
		if cfg.PinHead == nil {
			return nil, fmt.Errorf("coord: To is zero, no run plan to resume and no PinHead resolver configured")
		}
		head, err := cfg.PinHead(rctx)
		if err != nil {
			return nil, fmt.Errorf("coord: pinning %s head: %w", cfg.Chain, err)
		}
		cfg.To = head
	}

	tasks, err := cfg.Cut()
	if err != nil {
		return nil, err
	}
	res := &Result{Tasks: tasks, Epoch: epoch, Resumed: resumed}
	if !resumed {
		// The plan pins the range durably before any lease is claimed — it
		// must land, or a takeover could re-pin a moved head.
		plan = &RunState{Chain: cfg.Chain, From: cfg.From, To: cfg.To, Shards: cfg.Shards, Owner: cfg.Owner}
		if err := cfg.Retry.Do(rctx, "write run plan", func(ctx context.Context) error {
			return saveRunState(ctx, cfg.Store, plan)
		}); err != nil {
			return res, err
		}
	}
	tr := newRunTracker(cfg, tasks, epoch, leases.clock)

	parallel := cfg.Parallel
	if parallel <= 0 || parallel > len(tasks) {
		parallel = len(tasks)
	}
	sem := make(chan struct{}, parallel)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		// validated keeps each slice's shard as validation read it, by key,
		// so the final fold need not decode it again.
		validated = make(map[string]shardBlob, len(tasks))
	)
	for _, t := range tasks {
		wg.Add(1)
		go func(t Task) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shard, err := runTask(rctx, log, cfg, leases, t, tr, resumed)
			tr.update(t, func(r *TaskProgress) {
				r.State, r.Error = TaskDone, ""
				if err != nil {
					r.State, r.Error = TaskFailed, err.Error()
				}
			})
			mu.Lock()
			if err != nil {
				res.Failed = append(res.Failed, TaskFailure{Task: t, Err: err})
			} else {
				res.Completed = append(res.Completed, t)
				validated[shard.key] = shard
			}
			mu.Unlock()
			if err == nil && cfg.AfterTaskDone != nil {
				// The task's lease is released and its shard validated:
				// killing the coordinator here is exactly the recoverable
				// instant the chaos harness wants to hit.
				cfg.AfterTaskDone(t)
			}
		}(t)
	}
	wg.Wait()
	sort.Slice(res.Completed, func(i, j int) bool { return res.Completed[i].Index < res.Completed[j].Index })
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Task.Index < res.Failed[j].Task.Index })

	// Final fold: merge every shard the store holds — the store, not this
	// process's memory, says what gets merged; only blobs still holding
	// the bytes a task validated skip a second decode — tolerating gaps,
	// which the report accounts for. Overlaps, corruption and stale fences
	// stay loud (figures would be WRONG, not just partial), so merge
	// refusals are Permanent; load failures retry. The fence floors are the
	// fences this coordinator granted or read off lease records, from
	// memory: the newest each task's lineage holds.
	var gaps []core.BlockRange
	if len(res.Completed) > 0 {
		floors := tr.floors()
		lerr := cfg.Retry.Do(rctx, "merge shards", func(ctx context.Context) error {
			blobs, err := loadShards(ctx, cfg.Store, validated)
			if err != nil {
				return err
			}
			merged, interior, err := mergeShards(blobs, true, floors)
			if err != nil {
				return retry.Permanent(err)
			}
			res.Merged, gaps = merged, interior
			return nil
		})
		if lerr != nil {
			return res, lerr
		}
		// Edge gaps: blocks of the pinned range before the first or after
		// the last validated shard.
		cov := res.Merged.Covered()
		if cov.From > cfg.From {
			gaps = append([]core.BlockRange{{From: cfg.From, To: cov.From - 1}}, gaps...)
		}
		if cov.To < cfg.To {
			gaps = append(gaps, core.BlockRange{From: cov.To + 1, To: cfg.To})
		}
	} else {
		// No slice completed — nothing to merge; the report still renders,
		// with the whole range missing.
		gaps = []core.BlockRange{{From: cfg.From, To: cfg.To}}
	}

	res.Report = GapReport{
		Chain:    cfg.Chain,
		From:     cfg.From,
		To:       cfg.To,
		Complete: len(res.Failed) == 0 && len(gaps) == 0,
	}
	for _, g := range gaps {
		res.Report.Missing = append(res.Report.Missing, GapRange{From: g.From, To: g.To})
	}
	for _, f := range res.Failed {
		res.Report.Failures = append(res.Report.Failures, GapFailure{
			Task: f.Task.Name(), From: f.Task.From, To: f.Task.To, Error: f.Err.Error(),
		})
	}
	if len(res.Failed) > 0 {
		return res, fmt.Errorf("coord: %d of %d slices failed; merged figures are partial (see gap report)", len(res.Failed), len(tasks))
	}
	if len(gaps) > 0 {
		return res, fmt.Errorf("coord: merged shards leave %d gap(s) in [%d, %d]; figures are partial (see gap report)", len(gaps), cfg.From, cfg.To)
	}
	// Fully successful: retire the run so the next run of this chain starts
	// fresh — the plan first, then every task's lease record, then (on the
	// way out, once its renewer stopped) the run lease. The fold above
	// accepted every shard at its record's attempt, so the floors the
	// records carry are spent. The task deletes need no read: this run
	// still holds the run lease, so nobody else can claim its tasks. A
	// partial run deliberately leaves plan and records behind — the next
	// coordinator adopts the plan and re-attempts exactly the failed
	// slices, above every fence granted so far.
	keys := []string{RunStateKey(cfg.Chain)}
	for _, t := range tasks {
		keys = append(keys, leaseKey(t.Name()))
	}
	for _, key := range keys {
		if err := cfg.Retry.Do(rctx, "retire "+key, func(ctx context.Context) error {
			return cfg.Store.Delete(ctx, key)
		}); err != nil {
			return res, err
		}
	}
	retired = true
	return res, nil
}

// closeLease gives a held lease up on the way out — released, or deleted
// when its run retired — under the run's retry policy: one store fault
// must not leave the record live, or the next coordinator for the chain
// waits out the TTL. It outlives ctx: leases close on the way out of a
// cancelled run too. Exhausted retries are logged, not returned: the run's
// outcome is already decided, a live lease left behind expires within the
// TTL, and an expired one costs the next run nothing but a higher fence.
func closeLease(ctx context.Context, log *slog.Logger, cfg Config, leases *Leases, rec LeaseRecord, retire bool) {
	op := func(ctx context.Context) error { return leases.Release(ctx, rec) }
	if retire {
		op = func(ctx context.Context) error { return cfg.Store.Delete(ctx, leaseKey(rec.Task)) }
	}
	if err := cfg.Retry.Do(context.WithoutCancel(ctx), "close lease "+rec.Task, op); err != nil {
		log.Warn("closing lease failed; it expires within the TTL", "lease", rec.Task, "ttl", cfg.LeaseTTL, "err", err)
	}
}

// claimRetrying claims task's lease under the run's retry policy. A lease
// held live by someone else is retried too, on the same schedule: held
// leases expire, so polling turns "held" into "reclaimable" once the holder
// misses its renewals.
func claimRetrying(ctx context.Context, policy retry.Policy, leases *Leases, task string) (LeaseRecord, error) {
	policy.Retryable = func(err error) bool {
		return errors.As(err, new(*ErrHeld)) || retry.DefaultRetryable(err)
	}
	var rec LeaseRecord
	err := policy.Do(ctx, "claim "+task, func(ctx context.Context) (err error) {
		rec, err = leases.Claim(ctx, task)
		return err
	})
	return rec, err
}

// keepRenewed renews rec at TTL/3 until ctx ends, from a goroutine whose
// done channel it returns. Losing the lease cancels the context with the
// loss as cause — the holder must abandon the work; transient renew
// failures are logged (a store brown-out during a long run must be
// visible) and absorbed by the TTL, which survives a few missed renewals.
func keepRenewed(ctx context.Context, log *slog.Logger, leases *Leases, rec *LeaseRecord, ttl time.Duration, cancel context.CancelCauseFunc) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if err := leases.Renew(ctx, rec); err != nil {
					if errors.As(err, new(*ErrLost)) {
						cancel(err)
						return
					}
					log.Warn("lease renew failed (transient)", "lease", rec.Task, "err", err)
				}
			}
		}
	}()
	return done
}

// runTracker holds the run's task table in memory — state, fence, worker
// launches and terminal error per task — and publishes a Progress
// snapshot after every transition. It writes nothing to the store.
type runTracker struct {
	mu       sync.Mutex
	head     Progress       // report header, owner and epoch
	tasks    []TaskProgress // by Index-1
	progress *ProgressTracker
	now      func() time.Time // the Leases' clock: stamps every snapshot
}

func newRunTracker(cfg Config, tasks []Task, epoch int, now func() time.Time) *runTracker {
	tr := &runTracker{
		head:     Progress{Report: GapReport{Chain: cfg.Chain, From: cfg.From, To: cfg.To}, Owner: cfg.Owner, Epoch: epoch},
		progress: cfg.Progress,
		now:      now,
	}
	for _, t := range tasks {
		tr.tasks = append(tr.tasks, TaskProgress{Task: t.Name(), Index: t.Index, From: t.From, To: t.To, State: TaskPending})
	}
	tr.publishLocked()
	return tr
}

// update applies mut to task t's row and publishes.
func (tr *runTracker) update(t Task, mut func(*TaskProgress)) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	mut(&tr.tasks[t.Index-1])
	tr.publishLocked()
}

func (tr *runTracker) publishLocked() {
	if tr.progress != nil {
		head := tr.head
		head.UpdatedAt = tr.now().UTC()
		tr.progress.Publish(progressFrom(head, tr.tasks))
	}
}

// floors returns, by task name, the fence this run granted or read off
// each task's lease record (0, which refuses nothing, when it has none).
func (tr *runTracker) floors() map[string]uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	floors := make(map[string]uint64, len(tr.tasks))
	for _, r := range tr.tasks {
		floors[r.Task] = r.Fence
	}
	return floors
}

// runTask drives one task to a validated shard. On a resumed run it first
// reads the task's lease record: when the shard validates at the record's
// attempt, a previous coordinator finished the task, and it is skipped
// without a claim — the store, not a copy of someone's status, says so.
// Otherwise runTask claims the task's lease, keeps it renewed, and drives
// worker attempts under the retry policy until the shard validates or the
// budget runs out.
func runTask(ctx context.Context, log *slog.Logger, cfg Config, leases *Leases, t Task, tr *runTracker, resumed bool) (shardBlob, error) {
	log = log.With("task", t.Name())
	if resumed {
		// A read that fails only means claiming, which reads the record
		// again under the retry policy.
		if prev, ok, _ := leases.Holder(ctx, t.Name()); ok {
			t.Fence = uint64(prev.Attempt)
			tr.update(t, func(r *TaskProgress) { r.Fence = t.Fence })
			shard, err := validateShard(ctx, cfg.Store, t)
			if err == nil {
				log.Info("validated by a previous coordinator; skipping", "fence", t.Fence)
				return shard, nil
			}
			if retry.IsPermanent(err) {
				log.Error("task failed", "fence", t.Fence, "err", err)
				return shardBlob{}, err
			}
			log.Info("not done; claiming", "fence", t.Fence, "err", err)
		}
	}

	// Claiming itself retries: a flaky store or a stale lease from a dead
	// coordinator should not fail the slice outright.
	rec, err := claimRetrying(ctx, cfg.Retry, leases, t.Name())
	if err != nil {
		log.Error("task failed", "fence", t.Fence, "err", err)
		return shardBlob{}, err
	}
	// The claim's attempt count is the task's fence token: it grows on
	// every reclaim, and a released lease keeps its record, so the shard a
	// worker emits under this lease outranks anything a superseded worker
	// — of this run or an abandoned one — may still write.
	t.Fence = uint64(rec.Attempt)
	tr.update(t, func(r *TaskProgress) { r.State, r.Fence = TaskRunning, t.Fence })
	log = log.With("fence", t.Fence)
	log.Info("lease claimed")

	// Renew the lease at TTL/3 while attempts run. Losing the lease
	// cancels the worker: a reclaimer owns the slice now.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	renewDone := keepRenewed(rctx, log, leases, &rec, cfg.LeaseTTL, cancel)
	defer func() {
		cancel(nil)
		<-renewDone
		closeLease(ctx, log, cfg, leases, rec, false)
	}()

	policy := cfg.Retry
	policy.OnRetry = func(attempt int, err error, delay time.Duration) {
		log.Warn("attempt failed; relaunching", "attempt", attempt, "err", err, "delay", delay)
	}
	if policy.Retryable == nil {
		// Worker attempts retry on everything but an explicit Permanent
		// mark. In particular a MISSING shard blob after a clean-looking
		// exit (fs.ErrNotExist, permanent under the default classification)
		// is transient here: relaunching the worker is precisely what
		// rewrites it.
		policy.Retryable = func(err error) bool { return !retry.IsPermanent(err) }
	}
	var shard shardBlob
	err = policy.Do(rctx, "shard "+t.Name(), func(ctx context.Context) error {
		tr.update(t, func(r *TaskProgress) { r.Attempts++ })
		if err := cfg.Run(ctx, t); err != nil {
			return err
		}
		// Believe the store, not the worker's exit status: the attempt
		// counts only if the shard blob landed, decodes, and carries our
		// fence.
		var verr error
		shard, verr = validateShard(ctx, cfg.Store, t)
		return verr
	})
	if err != nil {
		log.Error("task failed", "err", err)
	} else {
		log.Info("shard validated")
	}
	return shard, err
}

// validateShard reads the shard blob a completed task must have emitted
// and checks it covers exactly the task's slice and — when t.Fence is set —
// carries exactly the task's fence token. Every refusal names store URL and
// blob key, so a coordinator log points straight at the object to inspect.
// The blob is returned for the final fold.
func validateShard(ctx context.Context, store blobstore.Store, t Task) (shardBlob, error) {
	b, err := readShard(ctx, store, shardKey(t.Name()), shardBlob{})
	if err != nil {
		return shardBlob{}, err
	}
	if t.Fence != 0 {
		if b.fence < t.Fence {
			// A superseded worker's stale emission overwrote (or preempted)
			// our worker's blob. Retryable: relaunching under the current
			// lease rewrites the blob with the current fence.
			return shardBlob{}, fmt.Errorf("coord: shard %s carries fence %d, want %d: stale emission from a superseded worker", b.ref(), b.fence, t.Fence)
		}
		if b.fence > t.Fence {
			// The blob outranks OUR lease lineage: someone reclaimed past us
			// and already finished the slice. We are the zombie here —
			// retrying under a stale fence could only waste work, so this
			// coordinator stands down on the slice permanently.
			return shardBlob{}, retry.Permanent(fmt.Errorf("coord: shard %s carries fence %d, newer than our lease attempt %d: this coordinator was superseded on the slice", b.ref(), b.fence, t.Fence))
		}
	}
	if cov := b.state.Covered(); cov.From != t.From || cov.To != t.To {
		return shardBlob{}, fmt.Errorf("coord: shard %s covers %s, want [%d, %d]", b.ref(), cov, t.From, t.To)
	}
	return b, nil
}
