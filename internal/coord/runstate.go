// Run state: the coordinator's own crash-recovery checkpoint. Workers
// already checkpoint their aggregates (worker.go); this file gives the
// coordinator the same property — a `run/<chain>.state` record in the
// blob store, rewritten after every task transition, carrying everything a
// replacement coordinator needs to resume mid-run: the pinned block range
// (so a takeover never re-pins head and re-cuts different slices), each
// task's status and newest fence, and which shards already validated.
//
// The active coordinator is elected through a run-level lease
// (lease/run-<chain>.lease) on the ordinary Leases protocol; the election
// attempt count is the coordinator epoch, exported on /v1/progress as
// X-Coord-Epoch. Standbys poll the lease and take over on expiry by
// loading this state.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"time"

	"repro/internal/blobstore"
)

// runStatePrefix keeps run-state records out of the way of shard blobs,
// checkpoints and leases in a shared store.
const runStatePrefix = "run/"

// runStateVersion stamps the record format so a future coordinator can
// refuse records it does not understand instead of misreading them.
const runStateVersion = 1

// RunStateKey names the run-state record for a chain.
func RunStateKey(chain string) string { return runStatePrefix + chain + ".state" }

// RunLeaseTask is the lease identity of the run-level election for a
// chain — "run-eos", stored at lease/run-eos.lease. The "run-" prefix
// cannot collide with task leases, whose names embed a block range.
func RunLeaseTask(chain string) string { return "run-" + chain }

// Task lifecycle states recorded in run state.
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

// TaskRecord is one task's entry in the run state.
type TaskRecord struct {
	Index int    `json:"index"`
	From  int64  `json:"from"`
	To    int64  `json:"to"`
	State string `json:"state"`
	// Fence is the newest lease attempt granted for this task — the fence
	// token its shard must carry at merge time. It only grows: a resumed
	// run inherits the old floor and raises it on reclaim.
	Fence uint64 `json:"fence,omitempty"`
	// Attempts counts worker launches across all coordinators of this run.
	Attempts int `json:"attempts,omitempty"`
	// ShardKey names the validated blob once State is done.
	ShardKey string `json:"shard_key,omitempty"`
	// Error carries the terminal error once State is failed.
	Error string `json:"error,omitempty"`
}

// RunState is the JSON record a coordinator checkpoints after every task
// transition. Tasks is keyed by task name (Task.Name).
type RunState struct {
	Version int    `json:"version"`
	Chain   string `json:"chain"`
	// From, To, Shards pin the partition. A takeover adopts them verbatim:
	// re-resolving head mid-run would cut different slices and orphan every
	// emitted shard.
	From   int64 `json:"from"`
	To     int64 `json:"to"`
	Shards int   `json:"shards"`
	// Owner and Epoch identify the coordinator that wrote the record and
	// which election attempt it ran under.
	Owner     string                 `json:"owner"`
	Epoch     int                    `json:"epoch"`
	UpdatedAt time.Time              `json:"updated_at"`
	Tasks     map[string]*TaskRecord `json:"tasks"`
}

// FenceFloors extracts the per-task fence floor for the final merge: the
// newest lease attempt each task was granted, keyed by task name.
func (s *RunState) FenceFloors() map[string]uint64 {
	floors := make(map[string]uint64, len(s.Tasks))
	for name, rec := range s.Tasks {
		if rec.Fence > 0 {
			floors[name] = rec.Fence
		}
	}
	return floors
}

// SaveRunState writes the record, stamping UpdatedAt with now — the
// coordinator passes its Leases' clock, so lease deadlines and checkpoint
// stamps read one clock. The write is a plain Put — last writer wins,
// which is safe because the run lease ensures one active coordinator per
// chain and a standby only writes after winning the election.
func SaveRunState(ctx context.Context, store blobstore.Store, s *RunState, now time.Time) error {
	s.Version = runStateVersion
	s.UpdatedAt = now.UTC()
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("coord: encoding run state for %s: %v", s.Chain, err)
	}
	if err := store.Put(ctx, RunStateKey(s.Chain), raw); err != nil {
		return fmt.Errorf("coord: writing run state for %s: %w", s.Chain, err)
	}
	return nil
}

// LoadRunState fetches a chain's run state; ok=false means no record. A
// torn or garbage record is a loud error, not a fresh start: silently
// re-cutting the range could orphan every shard of the interrupted run.
func LoadRunState(ctx context.Context, store blobstore.Store, chain string) (*RunState, bool, error) {
	raw, err := store.Get(ctx, RunStateKey(chain))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("coord: reading run state for %s: %w", chain, err)
	}
	var s RunState
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, false, fmt.Errorf("coord: run state for %s is corrupt: %v", chain, err)
	}
	if s.Version > runStateVersion {
		return nil, false, fmt.Errorf("coord: run state for %s has version %d, newer than this binary understands (%d)", chain, s.Version, runStateVersion)
	}
	if s.Chain != chain {
		return nil, false, fmt.Errorf("coord: run state at %s names chain %q, want %q", RunStateKey(chain), s.Chain, chain)
	}
	return &s, true, nil
}

// DeleteRunState removes a chain's run-state record — the last act of a
// fully successful run. A missing record is a no-op: the active may have
// already deleted it before dying.
func DeleteRunState(ctx context.Context, store blobstore.Store, chain string) error {
	err := store.Delete(ctx, RunStateKey(chain))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("coord: deleting run state for %s: %w", chain, err)
	}
	return nil
}

// FenceIndex reconstructs the per-task fence floors a store's lease
// lineage implies, for merges that run outside a live coordinator
// (cmd/merge): every surviving lease record contributes its task's
// attempt count, and every run-state record contributes each task's
// recorded fence — whichever is newest wins. Released leases leave no
// record, which is why run state (kept until a run fully succeeds, and
// deleted only after its shards validated under their final fences)
// carries the floors that matter; a store holding neither is a run that
// finished and retired both, and yields an empty index. Corrupt records
// are loud, never skipped: a mangled lease could be hiding the very floor
// that would expose a zombie shard.
func FenceIndex(ctx context.Context, store blobstore.Store) (map[string]uint64, error) {
	index := make(map[string]uint64)
	raise := func(task string, fence uint64) {
		if fence > index[task] {
			index[task] = fence
		}
	}
	leaseKeys, err := store.List(ctx, leasePrefix)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("coord: listing leases at %s: %w", store.URL(), err)
	}
	for _, key := range leaseKeys {
		if !strings.HasSuffix(key, ".lease") {
			continue
		}
		raw, err := store.Get(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("coord: reading lease %s at %s: %w", key, store.URL(), err)
		}
		var rec LeaseRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("coord: lease %s at %s is corrupt: %v", key, store.URL(), err)
		}
		if rec.Attempt > 0 {
			raise(rec.Task, uint64(rec.Attempt))
		}
	}
	stateKeys, err := store.List(ctx, runStatePrefix)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("coord: listing run states at %s: %w", store.URL(), err)
	}
	for _, key := range stateKeys {
		if !strings.HasSuffix(key, ".state") {
			continue
		}
		chain := strings.TrimSuffix(strings.TrimPrefix(key, runStatePrefix), ".state")
		s, ok, err := LoadRunState(ctx, store, chain)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // deleted between List and Get: the run just finished
		}
		for task, fence := range s.FenceFloors() {
			raise(task, fence)
		}
	}
	return index, nil
}
