// Run plan: the one record a coordinated run keeps about itself. A
// `run/<chain>.state` object pins the partition the run was cut from — the
// block range and shard count — and names the coordinator that pinned it.
// The first coordinator of a run Puts it once, before it claims any task
// lease; a takeover adopts it verbatim (re-resolving head mid-run would
// cut different slices and orphan every emitted shard); a fully successful
// run deletes it. It is never rewritten.
//
// Everything else a replacement coordinator needs is read off what the
// store already holds: a task's lease record keeps the newest fence the
// task was granted (a released lease is an expired record, not a deleted
// one), and the task is done when its shard validates at that fence.
//
// The active coordinator is elected through a run-level lease
// (lease/run-<chain>.lease) on the ordinary Leases protocol; the election
// attempt count is the coordinator epoch, exported on /v1/progress as
// X-Coord-Epoch. Standbys poll the lease and take over on expiry by
// adopting the plan.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/blobstore"
)

// runStateVersion stamps the record format so a future coordinator can
// refuse records it does not understand instead of misreading them.
// Version 1 was a per-transition status checkpoint; version 2 is the plan.
const runStateVersion = 2

// RunStateKey names the run plan for a chain.
func RunStateKey(chain string) string { return "run/" + chain + ".state" }

// RunLeaseTask is the lease identity of the run-level election for a
// chain — "run-eos", stored at lease/run-eos.lease. The "run-" prefix
// cannot collide with task leases, whose names embed a block range.
func RunLeaseTask(chain string) string { return "run-" + chain }

// Task states a Progress snapshot reports.
const (
	// TaskPending: not yet claimed by the run.
	TaskPending = "pending"
	// TaskRunning: lease claimed, worker attempts in flight.
	TaskRunning = "running"
	// TaskDone: shard blob validated against the slice.
	TaskDone = "done"
	// TaskFailed: retries exhausted or a permanent refusal.
	TaskFailed = "failed"
)

// RunState is the run plan: the partition a run was cut from and the
// coordinator that pinned it.
type RunState struct {
	Version int    `json:"version"`
	Chain   string `json:"chain"`
	// From, To, Shards pin the partition. A takeover adopts them verbatim.
	From   int64 `json:"from"`
	To     int64 `json:"to"`
	Shards int   `json:"shards"`
	// Owner names the coordinator that pinned the partition.
	Owner string `json:"owner"`
}

// saveRunState writes the plan. The write is a plain Put, made once per
// run by the coordinator holding the run lease, before any task is
// claimed.
func saveRunState(ctx context.Context, store blobstore.Store, s *RunState) error {
	s.Version = runStateVersion
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("coord: encoding run plan for %s: %v", s.Chain, err)
	}
	if err := store.Put(ctx, RunStateKey(s.Chain), raw); err != nil {
		return fmt.Errorf("coord: writing run plan for %s: %w", s.Chain, err)
	}
	return nil
}

// LoadRunState fetches a chain's run plan; ok=false means no record. A
// record that does not parse, is of another version, or pins something
// that is not a partition is a loud error naming key and store, never a
// fresh start: silently re-cutting the range could orphan every shard of
// the interrupted run.
func LoadRunState(ctx context.Context, store blobstore.Store, chain string) (*RunState, bool, error) {
	key := RunStateKey(chain)
	raw, err := store.Get(ctx, key)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("coord: reading run plan %s at %s: %w", key, store.URL(), err)
	}
	var s RunState
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, false, fmt.Errorf("coord: run plan %s at %s is corrupt: %v", key, store.URL(), err)
	}
	refuse := func(format string, args ...any) (*RunState, bool, error) {
		return nil, false, fmt.Errorf("coord: run plan %s at %s %s", key, store.URL(), fmt.Sprintf(format, args...))
	}
	switch {
	case s.Version == 1:
		return refuse("is a version 1 run state, which this binary does not read: finish it with the binary that wrote it, or delete %s", key)
	case s.Version != runStateVersion:
		return refuse("has version %d; this binary reads only %d", s.Version, runStateVersion)
	case s.Chain != chain:
		return refuse("names chain %q, want %q", s.Chain, chain)
	case s.From < 1 || s.To < s.From:
		return refuse("pins [%d, %d], which is not a block range", s.From, s.To)
	case s.Shards < 1 || int64(s.Shards) > s.To-s.From+1:
		return refuse("cuts [%d, %d] into %d shards, which is not a partition", s.From, s.To, s.Shards)
	}
	return &s, true, nil
}
