package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/retry"
	"repro/internal/wire"
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
// "eos-0000000001-0000000050", matching the shard key minus suffix.
func (t Task) Name() string {
	return fmt.Sprintf("%s-%010d-%010d", t.Chain, t.From, t.To)
}

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
	// Log, when set, receives progress lines.
	Log io.Writer

	// PinHead, when set, resolves the chain head lazily: it is consulted
	// only when To is zero AND no run state exists — a takeover adopts the
	// interrupted run's pinned range instead of re-pinning, so every slice
	// is cut from the same span across coordinator generations.
	PinHead func(ctx context.Context) (int64, error)
	// RunLease, when set, is a run-level lease the caller already won
	// (a standby's Await) — Run adopts it instead of claiming its own.
	RunLease *LeaseRecord
	// Progress, when set, receives an immutable snapshot after every task
	// transition — the feed behind GET /v1/progress.
	Progress *ProgressTracker
	// AfterTaskDone, when set, runs after a task transitions to done and
	// the run state checkpoint for it is written. The chaos harness uses
	// it to SIGKILL the active coordinator at a known-recoverable instant.
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
	// Resumed reports whether the run picked up an interrupted
	// coordinator's checkpointed state instead of starting fresh.
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
// adopts cfg.RunLease, a standby's already-won election), checkpoints a
// run-state record after every task transition, and on startup adopts an
// interrupted run's checkpoint — pinned range, validated shards, fence
// floors — instead of starting over. The run state is deleted only after
// a fully successful merge; a partial run leaves it behind so the next
// coordinator re-attempts exactly the failed slices.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Owner == "" {
		cfg.Owner = "coordinator"
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	leases := NewLeases(cfg.Store, cfg.Owner, cfg.LeaseTTL)

	// Election: exactly one active coordinator per chain. A held lease is
	// retryable on the same schedule as everything else — the holder may
	// die and expire. The election attempt count is the coordinator epoch:
	// it grows monotonically across takeovers, so progress pollers can
	// detect a change of regime from the X-Coord-Epoch header alone.
	var runRec LeaseRecord
	if cfg.RunLease != nil {
		runRec = *cfg.RunLease
	} else {
		claim := cfg.Retry
		claim.Retryable = func(err error) bool {
			var held *ErrHeld
			if errors.As(err, &held) {
				return true
			}
			return retry.DefaultRetryable(err)
		}
		err := claim.Do(ctx, "claim "+RunLeaseTask(cfg.Chain), func(ctx context.Context) error {
			var cerr error
			runRec, cerr = leases.Claim(ctx, RunLeaseTask(cfg.Chain))
			return cerr
		})
		if err != nil {
			return nil, err
		}
	}
	epoch := runRec.Attempt
	logf("coordinator %s elected active for %s (epoch %d)", cfg.Owner, cfg.Chain, epoch)

	// Keep the run lease renewed. Losing it means a standby decided we
	// were dead and took over: every in-flight worker must stop, and —
	// crucially — we must stop writing run state, which the cancellation
	// enforces because every checkpoint Put runs under rctx.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	runRenewDone := keepRenewed(rctx, leases, &runRec, cfg.LeaseTTL, cancel, RunLeaseTask(cfg.Chain), logf)
	defer func() {
		cancel(nil)
		<-runRenewDone
		releaseLease(ctx, cfg, leases, runRec, logf)
	}()

	// Resume or pin: an interrupted run's checkpoint wins over fresh
	// configuration — re-resolving head mid-run would cut different slices
	// and orphan every emitted shard. A caller that explicitly pinned a
	// DIFFERENT range than the checkpoint gets a loud conflict, not a
	// silent adoption.
	prev, resumed, err := LoadRunState(rctx, cfg.Store, cfg.Chain)
	if err != nil {
		return nil, err
	}
	if resumed {
		if cfg.To != 0 && (prev.From != cfg.From || prev.To != cfg.To || prev.Shards != cfg.Shards) {
			return nil, fmt.Errorf("coord: run state for %s pins [%d, %d] in %d shards, but this run was configured for [%d, %d] in %d; delete %s to abandon the interrupted run",
				cfg.Chain, prev.From, prev.To, prev.Shards, cfg.From, cfg.To, cfg.Shards, RunStateKey(cfg.Chain))
		}
		cfg.From, cfg.To, cfg.Shards = prev.From, prev.To, prev.Shards
		logf("resuming interrupted run for %s: [%d, %d] in %d shards (previous coordinator %s, epoch %d)",
			cfg.Chain, cfg.From, cfg.To, cfg.Shards, prev.Owner, prev.Epoch)
	} else if cfg.To == 0 {
		if cfg.PinHead == nil {
			return nil, fmt.Errorf("coord: To is zero, no run state to resume and no PinHead resolver configured")
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

	state := prev
	if state == nil {
		state = &RunState{Chain: cfg.Chain, Tasks: make(map[string]*TaskRecord, len(tasks))}
	}
	state.From, state.To, state.Shards = cfg.From, cfg.To, cfg.Shards
	state.Owner, state.Epoch = cfg.Owner, epoch
	for _, t := range tasks {
		if state.Tasks[t.Name()] == nil {
			state.Tasks[t.Name()] = &TaskRecord{Index: t.Index, From: t.From, To: t.To, State: TaskPending}
		}
	}
	tr := &runTracker{store: cfg.Store, state: state, progress: cfg.Progress, logf: logf, now: leases.clock}
	// The first checkpoint pins the range durably before any lease is
	// claimed — it must land, or a takeover could re-pin a moved head.
	if err := cfg.Retry.Do(rctx, "checkpoint run state", tr.checkpoint); err != nil {
		return res, err
	}

	parallel := cfg.Parallel
	if parallel <= 0 || parallel > len(tasks) {
		parallel = len(tasks)
	}
	sem := make(chan struct{}, parallel)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		// validated keeps each slice's shard as validation decoded it, by
		// key, so the final fold need not decode it again.
		validated = make(map[string]validatedShard, len(tasks))
	)
	for _, t := range tasks {
		wg.Add(1)
		go func(t Task) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shard, err := runTask(rctx, cfg, leases, t, tr, logf)
			if err != nil {
				tr.transition(rctx, t.Name(), func(r *TaskRecord) {
					r.State = TaskFailed
					r.Error = err.Error()
				})
			} else {
				tr.transition(rctx, t.Name(), func(r *TaskRecord) {
					r.State = TaskDone
					r.ShardKey = t.Name() + ".shard"
					r.Error = ""
				})
			}
			mu.Lock()
			if err != nil {
				logf("slice %d/%d [%d, %d]: FAILED: %v", t.Index, t.N, t.From, t.To, err)
				res.Failed = append(res.Failed, TaskFailure{Task: t, Err: err})
			} else {
				logf("slice %d/%d [%d, %d]: shard validated", t.Index, t.N, t.From, t.To)
				res.Completed = append(res.Completed, t)
				validated[shard.blob.Key] = shard
			}
			mu.Unlock()
			if err == nil && cfg.AfterTaskDone != nil {
				// After the done-transition checkpoint is written: killing
				// the coordinator here is exactly the recoverable instant
				// the chaos harness wants to hit.
				cfg.AfterTaskDone(t)
			}
		}(t)
	}
	wg.Wait()
	sort.Slice(res.Completed, func(i, j int) bool { return res.Completed[i].Index < res.Completed[j].Index })
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Task.Index < res.Failed[j].Task.Index })

	// Final fold: load every emitted shard and merge, tolerating gaps —
	// failed slices left holes the report accounts for. Overlaps,
	// corruption and stale fences stay loud (figures would be WRONG, not
	// just partial), so merge refusals are marked Permanent; load failures
	// against a flaky store retry on the same policy as everything else.
	// The fence floors come from the run state, which outlives released
	// task leases — a zombie's stale emission is refused even after the
	// winning lease record is long deleted.
	var gaps []core.BlockRange
	if len(res.Completed) > 0 {
		floors := tr.fenceFloors()
		lerr := cfg.Retry.Do(rctx, "merge shards", func(ctx context.Context) error {
			blobs, err := loadShards(ctx, cfg.Store, validated)
			if err != nil {
				return err
			}
			merged, interior, err := core.MergeShards(blobs, true, floors)
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
	// Fully successful: retire the run state so the next run of this chain
	// starts fresh. A partial run deliberately leaves it behind — the next
	// coordinator resumes and re-attempts exactly the failed slices.
	if err := cfg.Retry.Do(rctx, "retire run state", func(ctx context.Context) error {
		return DeleteRunState(ctx, cfg.Store, cfg.Chain)
	}); err != nil {
		return res, err
	}
	return res, nil
}

// releaseLease gives a lease back under the run's retry policy: one store
// fault on the read or the delete must not leak the record, or the next
// coordinator for the chain waits out the TTL. It outlives ctx — releases
// run on the way out of a cancelled run too. Exhausted retries are logged,
// not returned: the run's outcome is already decided and the TTL reclaims
// the lease.
func releaseLease(ctx context.Context, cfg Config, leases *Leases, rec LeaseRecord, logf func(string, ...any)) {
	err := cfg.Retry.Do(context.WithoutCancel(ctx), "release "+rec.Task, func(ctx context.Context) error {
		return leases.Release(ctx, rec)
	})
	if err != nil {
		logf("lease %s: release failed, it expires within %v: %v", rec.Task, cfg.LeaseTTL, err)
	}
}

// keepRenewed renews rec at TTL/3 until ctx ends, from a goroutine whose
// done channel it returns. Losing the lease cancels the context with the
// loss as cause — the holder must abandon the work; transient renew
// failures are logged (a store brown-out during a long run must be
// visible) and absorbed by the TTL, which survives a few missed renewals.
func keepRenewed(ctx context.Context, leases *Leases, rec *LeaseRecord, ttl time.Duration, cancel context.CancelCauseFunc, name string, logf func(string, ...any)) <-chan struct{} {
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
					var lost *ErrLost
					if errors.As(err, &lost) {
						cancel(err)
						return
					}
					logf("lease %s: renew failed (transient): %v", name, err)
				}
			}
		}
	}()
	return done
}

// runTracker serializes run-state mutation, checkpointing and progress
// publication. Every transition rewrites the FULL state blob, so a
// checkpoint lost to a flaky store costs only takeover freshness — the
// next transition carries this one's changes too — and the tracker can
// log-and-continue instead of failing the run.
type runTracker struct {
	mu       sync.Mutex
	store    blobstore.Store
	state    *RunState
	progress *ProgressTracker
	logf     func(string, ...any)
	now      func() time.Time // the Leases' clock: stamps every checkpoint
}

// record returns a copy of a task's current record.
func (tr *runTracker) record(name string) (TaskRecord, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := tr.state.Tasks[name]
	if r == nil {
		return TaskRecord{}, false
	}
	return *r, true
}

// transition mutates one task's record, checkpoints and publishes.
func (tr *runTracker) transition(ctx context.Context, name string, mut func(*TaskRecord)) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if r := tr.state.Tasks[name]; r != nil {
		mut(r)
	}
	if err := SaveRunState(ctx, tr.store, tr.state, tr.now()); err != nil {
		tr.logf("run state checkpoint failed (transient): %v", err)
	}
	tr.publishLocked()
}

// checkpoint saves the current state, loudly — the initial pin-the-range
// write goes through here under the retry policy.
func (tr *runTracker) checkpoint(ctx context.Context) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := SaveRunState(ctx, tr.store, tr.state, tr.now()); err != nil {
		return err
	}
	tr.publishLocked()
	return nil
}

func (tr *runTracker) publishLocked() {
	if tr.progress != nil {
		tr.progress.Publish(progressFrom(tr.state))
	}
}

// fenceFloors snapshots the per-task fence floors for the final merge.
func (tr *runTracker) fenceFloors() map[string]uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.state.FenceFloors()
}

// runTask claims a task's lease, keeps it renewed, and drives worker
// attempts under the retry policy until the task's shard blob validates
// or the budget runs out. On a resumed run, a slice the previous
// coordinator already validated is skipped — after re-validating against
// the store, because trusting a checkpoint over the store would merge a
// blob nobody checked.
func runTask(ctx context.Context, cfg Config, leases *Leases, t Task, tr *runTracker, logf func(string, ...any)) (validatedShard, error) {
	if prev, ok := tr.record(t.Name()); ok && prev.State == TaskDone {
		done := t
		done.Fence = prev.Fence
		if shard, err := validateShard(ctx, cfg.Store, done); err == nil {
			logf("slice %d/%d [%d, %d]: validated by a previous coordinator (fence %d), skipping", t.Index, t.N, t.From, t.To, prev.Fence)
			return shard, nil
		} else if retry.IsPermanent(err) {
			return validatedShard{}, err
		} else {
			logf("slice %d/%d [%d, %d]: checkpoint says done but shard no longer validates (%v); relaunching", t.Index, t.N, t.From, t.To, err)
		}
	}

	// Claiming itself retries: a flaky store or a stale lease from a dead
	// coordinator should not fail the slice outright. A lease held live by
	// someone else is permanent for THIS coordinator right now — but held
	// leases expire, so the claim is retried on the same schedule as
	// worker attempts, converting "held" into "reclaimable" once the
	// holder misses renewals.
	var rec LeaseRecord
	claim := cfg.Retry
	claim.Retryable = func(err error) bool {
		var held *ErrHeld
		if errors.As(err, &held) {
			return true // the holder may expire; keep polling
		}
		return retry.DefaultRetryable(err)
	}
	err := claim.Do(ctx, "claim "+t.Name(), func(ctx context.Context) error {
		var cerr error
		rec, cerr = leases.Claim(ctx, t.Name())
		return cerr
	})
	if err != nil {
		return validatedShard{}, err
	}
	// The claim's attempt count is the task's fence token: it grows on
	// every reclaim, so the shard a worker emits under this lease outranks
	// anything a superseded worker may still write.
	t.Fence = uint64(rec.Attempt)
	tr.transition(ctx, t.Name(), func(r *TaskRecord) {
		r.State = TaskRunning
		if t.Fence > r.Fence {
			r.Fence = t.Fence
		}
	})
	logf("slice %d/%d [%d, %d]: lease claimed (attempt %d, fence %d)", t.Index, t.N, t.From, t.To, rec.Attempt, t.Fence)

	// Renew the lease at TTL/3 while attempts run. Losing the lease
	// cancels the worker: a reclaimer owns the slice now.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	renewDone := keepRenewed(rctx, leases, &rec, cfg.LeaseTTL, cancel, t.Name(), logf)
	defer func() {
		cancel(nil)
		<-renewDone
		releaseLease(ctx, cfg, leases, rec, logf)
	}()

	policy := cfg.Retry
	policy.OnRetry = func(attempt int, err error, delay time.Duration) {
		logf("slice %d/%d [%d, %d]: attempt %d failed (%v), relaunching in %v", t.Index, t.N, t.From, t.To, attempt, err, delay)
	}
	if policy.Retryable == nil {
		// Worker attempts retry on everything but an explicit Permanent
		// mark. In particular a MISSING shard blob after a clean-looking
		// exit (fs.ErrNotExist, permanent under the default classification)
		// is transient here: relaunching the worker is precisely what
		// rewrites it.
		policy.Retryable = func(err error) bool { return !retry.IsPermanent(err) }
	}
	var shard validatedShard
	err = policy.Do(rctx, "shard "+t.Name(), func(ctx context.Context) error {
		tr.transition(ctx, t.Name(), func(r *TaskRecord) { r.Attempts++ })
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
	return shard, err
}

// validatedShard is a slice's shard as validateShard found it: the stored
// bytes and what they decoded to.
type validatedShard struct {
	raw  []byte
	blob core.ShardBlob
}

// validateShard fetches and decodes the shard blob a completed task must
// have emitted, checking it covers exactly the task's slice and — when
// t.Fence is set — carries exactly the task's fence token. Every refusal
// names store URL and blob key, so a coordinator log points straight at
// the object to inspect. The decoded shard is returned for the final fold.
func validateShard(ctx context.Context, store blobstore.Store, t Task) (validatedShard, error) {
	key := t.Name() + ".shard"
	raw, err := store.Get(ctx, key)
	if err != nil {
		return validatedShard{}, fmt.Errorf("coord: worker exited clean but shard %s is unreadable: %w", key, err)
	}
	fence, err := wire.ShardFence(raw)
	if err != nil {
		return validatedShard{}, fmt.Errorf("coord: shard %s at %s: %w", key, store.URL(), err)
	}
	if t.Fence != 0 {
		if fence < t.Fence {
			// A superseded worker's stale emission overwrote (or preempted)
			// our worker's blob. Retryable: relaunching under the current
			// lease rewrites the blob with the current fence.
			return validatedShard{}, fmt.Errorf("coord: shard %s at %s carries fence %d, want %d: stale emission from a superseded worker", key, store.URL(), fence, t.Fence)
		}
		if fence > t.Fence {
			// The blob outranks OUR lease lineage: someone reclaimed past us
			// and already finished the slice. We are the zombie here —
			// retrying under a stale fence could only waste work, so this
			// coordinator stands down on the slice permanently.
			return validatedShard{}, retry.Permanent(fmt.Errorf("coord: shard %s at %s carries fence %d, newer than our lease attempt %d: this coordinator was superseded on the slice", key, store.URL(), fence, t.Fence))
		}
	}
	st, err := core.DecodeShard(raw)
	if err != nil {
		return validatedShard{}, fmt.Errorf("coord: shard %s at %s: %w", key, store.URL(), err)
	}
	if cov := st.Covered(); cov.From != t.From || cov.To != t.To {
		return validatedShard{}, fmt.Errorf("coord: shard %s at %s covers %s, want [%d, %d]", key, store.URL(), cov, t.From, t.To)
	}
	return validatedShard{raw: raw, blob: core.ShardBlob{Store: store.URL(), Key: key, Fence: fence, State: st}}, nil
}

// loadShards is core.LoadShards for a coordinator that has already decoded
// what it expects to find. It lists and fetches the store all the same —
// the store, not this process's memory, says what gets merged — but when
// every *.shard blob there is byte for byte one a task validated, the
// validated decodes are the answer. Anything else — a stray shard, a blob
// rewritten since its validation — and everything is decoded afresh.
func loadShards(ctx context.Context, store blobstore.Store, validated map[string]validatedShard) ([]core.ShardBlob, error) {
	keys, err := store.List(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("coord: listing shards at %s: %w", store.URL(), err)
	}
	var blobs []core.ShardBlob
	for _, key := range keys {
		if !strings.HasSuffix(key, ".shard") {
			continue
		}
		raw, err := store.Get(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("coord: fetching shard %s from %s: %w", key, store.URL(), err)
		}
		shard, ok := validated[key]
		if !ok || !bytes.Equal(shard.raw, raw) {
			return core.LoadShards(ctx, store)
		}
		blobs = append(blobs, shard.blob)
	}
	if len(blobs) == 0 {
		return core.LoadShards(ctx, store) // for its error
	}
	return blobs, nil
}
