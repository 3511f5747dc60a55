// Package coord is the fault-tolerant half of a distributed crawl: a
// supervisor (Coordinator) that cuts a pinned block range into shard
// slices, claims each slice through lease objects in the blob store,
// launches and relaunches shard workers under the shared retry policy,
// and folds the emitted shard blobs into final figures — degrading to
// partial figures plus a machine-readable gap report when a slice
// exhausts its retries, instead of refusing outright.
//
// The paper's measurement runs are week-long crawls across machines
// (Perez et al., IMC 2020); a coordinator that loses the whole figure set
// to one killed worker cannot drive them. Everything here is built to be
// killed: workers checkpoint their aggregate to the blob store after
// every chunk (see RunShardCrawl) and resume from it, leases expire and
// are reclaimed, and the chaos tests SIGKILL live workers mid-crawl and
// assert the merged figures stay byte-identical to a single-process run.
package coord

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/blobstore"
)

// leasePrefix keeps lease objects out of the way of shard blobs and
// checkpoints in a shared store.
const leasePrefix = "lease/"

// leaseVersion stamps the record format so a future coordinator can
// refuse records it does not understand instead of misreading them.
const leaseVersion = 1

// LeaseRecord is the JSON object a claim writes to the blob store: who
// owns the slice, until when, and how many claims (first or reclaimed)
// the slice has seen. The nonce is fresh per claim and is how a claimant
// detects losing a race on stores without compare-and-swap: write, read
// back, and whoever's nonce survived owns the lease.
type LeaseRecord struct {
	Version  int       `json:"version"`
	Task     string    `json:"task"`
	Owner    string    `json:"owner"`
	Nonce    string    `json:"nonce"`
	Attempt  int       `json:"attempt"`
	Deadline time.Time `json:"deadline"`
}

// ErrHeld reports a claim attempt on a lease another owner holds live.
type ErrHeld struct {
	Task     string
	Owner    string
	Deadline time.Time
}

func (e *ErrHeld) Error() string {
	return fmt.Sprintf("coord: lease %s held by %s until %s", e.Task, e.Owner, e.Deadline.UTC().Format(time.RFC3339))
}

// ErrLost reports that a renew or release found the lease no longer ours
// — another coordinator reclaimed it after our deadline passed. The
// holder must stop working on the slice: its result may race the
// reclaimer's.
type ErrLost struct {
	Task  string
	Owner string // who holds it now ("" = record gone)
}

func (e *ErrLost) Error() string {
	if e.Owner == "" {
		return fmt.Sprintf("coord: lease %s vanished (released or deleted)", e.Task)
	}
	return fmt.Sprintf("coord: lease %s lost to %s", e.Task, e.Owner)
}

// Leases claims, renews and releases per-task lease records in a blob
// store. The store is the only shared medium — no lock service — so
// claims are advisory and race-detected rather than atomic: Put the
// record, Get it back, and the nonce that survived owns the lease. Two
// coordinators racing the same stale lease within one store round-trip
// can both think they won for that window; the race wastes work but
// never corrupts figures — and since the Attempt lineage doubles as a
// fence token stamped into every coordinated shard and verified at
// validate and merge time (see coordinator.go and core.MergeShards),
// that is an enforced invariant, not an assumption: the loser's emission
// carries an older fence and is refused.
type Leases struct {
	store blobstore.Store
	owner string
	ttl   time.Duration

	// now and nonce are injectable for tests; nil means the real clock
	// and crypto/rand.
	now   func() time.Time
	nonce func() string
}

// NewLeases scopes lease management to a store, an owner name (unique per
// coordinator process), and a time-to-live for claims.
func NewLeases(store blobstore.Store, owner string, ttl time.Duration) *Leases {
	return &Leases{store: store, owner: owner, ttl: ttl}
}

func (l *Leases) clock() time.Time {
	if l.now != nil {
		return l.now()
	}
	return time.Now()
}

func (l *Leases) newNonce() string {
	if l.nonce != nil {
		return l.nonce()
	}
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("coord: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func leaseKey(task string) string { return leasePrefix + task + ".lease" }

// get fetches and decodes a lease record; ok=false means no record.
func (l *Leases) get(ctx context.Context, task string) (LeaseRecord, bool, error) {
	raw, err := l.store.Get(ctx, leaseKey(task))
	if errors.Is(err, fs.ErrNotExist) {
		return LeaseRecord{}, false, nil
	}
	if err != nil {
		return LeaseRecord{}, false, fmt.Errorf("coord: reading lease %s: %w", task, err)
	}
	var rec LeaseRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		// A torn or garbage lease record is treated as loud, not stale:
		// silently reclaiming over it could shadow a live owner whose
		// record a flaky store mangled.
		return LeaseRecord{}, false, fmt.Errorf("coord: lease %s is corrupt: %v", task, err)
	}
	if rec.Version > leaseVersion {
		return LeaseRecord{}, false, fmt.Errorf("coord: lease %s has version %d, newer than this binary understands (%d)", task, rec.Version, leaseVersion)
	}
	return rec, true, nil
}

// put writes a record and reads it back; the returned record is whatever
// actually survived in the store.
func (l *Leases) put(ctx context.Context, task string, rec LeaseRecord) (LeaseRecord, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return LeaseRecord{}, fmt.Errorf("coord: encoding lease %s: %v", task, err)
	}
	if err := l.store.Put(ctx, leaseKey(task), raw); err != nil {
		return LeaseRecord{}, fmt.Errorf("coord: writing lease %s: %w", task, err)
	}
	got, ok, err := l.get(ctx, task)
	if err != nil {
		return LeaseRecord{}, err
	}
	if !ok {
		return LeaseRecord{}, &ErrLost{Task: task}
	}
	return got, nil
}

// Holder returns the current lease record for task, live or expired;
// ok=false means no record exists at all. Standbys use it to distinguish
// "a run exists to watch" from "nothing has started" without the side
// effect a Claim on a free lease would have: a standby only ever
// continues a run, never initiates one.
func (l *Leases) Holder(ctx context.Context, task string) (LeaseRecord, bool, error) {
	return l.get(ctx, task)
}

// Claim takes the lease for task: fresh when no record exists, reclaimed
// (attempt count bumped) when the existing record's deadline has passed,
// and *ErrHeld when a live record belongs to someone else. A live record
// already carrying our owner name is re-claimed with a fresh nonce — the
// restart-after-crash path, where the previous process of this owner is
// guaranteed dead.
func (l *Leases) Claim(ctx context.Context, task string) (LeaseRecord, error) {
	prev, ok, err := l.get(ctx, task)
	if err != nil {
		return LeaseRecord{}, err
	}
	attempt := 1
	if ok {
		if l.clock().Before(prev.Deadline) && prev.Owner != l.owner {
			return LeaseRecord{}, &ErrHeld{Task: task, Owner: prev.Owner, Deadline: prev.Deadline}
		}
		attempt = prev.Attempt + 1
	}
	rec := LeaseRecord{
		Version:  leaseVersion,
		Task:     task,
		Owner:    l.owner,
		Nonce:    l.newNonce(),
		Attempt:  attempt,
		Deadline: l.clock().Add(l.ttl),
	}
	got, err := l.put(ctx, task, rec)
	if err != nil {
		return LeaseRecord{}, err
	}
	if got.Nonce != rec.Nonce {
		// Someone else's write landed after ours: they own it.
		return LeaseRecord{}, &ErrHeld{Task: task, Owner: got.Owner, Deadline: got.Deadline}
	}
	return rec, nil
}

// Renew extends a held lease's deadline by the TTL. It verifies the store
// still carries our nonce first; *ErrLost means a reclaimer took over and
// the caller must abandon the slice.
func (l *Leases) Renew(ctx context.Context, rec *LeaseRecord) error {
	cur, ok, err := l.get(ctx, rec.Task)
	if err != nil {
		return err
	}
	if !ok || cur.Nonce != rec.Nonce {
		return &ErrLost{Task: rec.Task, Owner: cur.Owner}
	}
	next := *rec
	next.Deadline = l.clock().Add(l.ttl)
	got, err := l.put(ctx, rec.Task, next)
	if err != nil {
		return err
	}
	if got.Nonce != rec.Nonce {
		return &ErrLost{Task: rec.Task, Owner: got.Owner}
	}
	rec.Deadline = next.Deadline
	return nil
}

// Release deletes a held lease. Releasing a lease we lost is a no-op —
// the reclaimer's record stays.
func (l *Leases) Release(ctx context.Context, rec LeaseRecord) error {
	cur, ok, err := l.get(ctx, rec.Task)
	if err != nil {
		return err
	}
	if !ok || cur.Nonce != rec.Nonce {
		return nil
	}
	if err := l.store.Delete(ctx, leaseKey(rec.Task)); err != nil {
		return fmt.Errorf("coord: releasing lease %s: %w", rec.Task, err)
	}
	return nil
}
