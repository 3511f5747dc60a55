package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
)

// fakeClock is an injectable lease clock tests advance by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func newTestLeases(store blobstore.Store, owner string, clk *fakeClock) *Leases {
	l := NewLeases(store, owner, time.Minute)
	l.now = clk.now
	n := 0
	l.nonce = func() string { n++; return fmt.Sprintf("%s-nonce-%d", owner, n) }
	return l
}

func TestLeaseClaimRenewRelease(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newTestLeases(store, "alpha", clk)
	b := newTestLeases(store, "beta", clk)

	// Fresh claim.
	rec, err := a.Claim(ctx, "eos-1-50")
	if err != nil {
		t.Fatalf("fresh claim: %v", err)
	}
	if rec.Attempt != 1 || rec.Owner != "alpha" || !rec.Deadline.Equal(clk.t.Add(time.Minute)) {
		t.Fatalf("claimed record %+v", rec)
	}

	// A live lease refuses another owner.
	var held *ErrHeld
	if _, err := b.Claim(ctx, "eos-1-50"); !errors.As(err, &held) {
		t.Fatalf("claim of held lease: %v, want *ErrHeld", err)
	}
	if held.Owner != "alpha" {
		t.Fatalf("ErrHeld names %q, want alpha", held.Owner)
	}

	// The same owner reclaims its own live lease (crash restart) with the
	// attempt count bumped.
	rec2, err := a.Claim(ctx, "eos-1-50")
	if err != nil {
		t.Fatalf("self reclaim: %v", err)
	}
	if rec2.Attempt != 2 || rec2.Nonce == rec.Nonce {
		t.Fatalf("self reclaim record %+v (old nonce %s)", rec2, rec.Nonce)
	}

	// Renew extends the deadline.
	clk.t = clk.t.Add(30 * time.Second)
	if err := a.Renew(ctx, &rec2); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if !rec2.Deadline.Equal(clk.t.Add(time.Minute)) {
		t.Fatalf("renewed deadline %v, want %v", rec2.Deadline, clk.t.Add(time.Minute))
	}

	// After expiry another owner reclaims, attempt count preserved+bumped.
	clk.t = clk.t.Add(2 * time.Minute)
	rec3, err := b.Claim(ctx, "eos-1-50")
	if err != nil {
		t.Fatalf("stale reclaim: %v", err)
	}
	if rec3.Owner != "beta" || rec3.Attempt != 3 {
		t.Fatalf("reclaimed record %+v", rec3)
	}

	// The previous holder's renew now reports the loss.
	var lost *ErrLost
	if err := a.Renew(ctx, &rec2); !errors.As(err, &lost) {
		t.Fatalf("renew of lost lease: %v, want *ErrLost", err)
	}
	if lost.Owner != "beta" {
		t.Fatalf("ErrLost names %q, want beta", lost.Owner)
	}

	// Releasing a lost lease is a no-op; releasing a held one expires its
	// record in place, keeping the attempt lineage.
	if err := a.Release(ctx, rec2); err != nil {
		t.Fatalf("release of lost lease: %v", err)
	}
	if cur, ok, _ := b.get(ctx, "eos-1-50"); !ok || cur.Nonce != rec3.Nonce || !cur.Deadline.Equal(rec3.Deadline) {
		t.Fatalf("lost-lease release touched the reclaimer's record: %+v", cur)
	}
	if err := b.Release(ctx, rec3); err != nil {
		t.Fatalf("release: %v", err)
	}
	if cur, ok, _ := b.get(ctx, "eos-1-50"); !ok || cur.Attempt != 3 || clk.t.Before(cur.Deadline) {
		t.Fatalf("released record %+v (present %v), want attempt 3 expired at %v", cur, ok, clk.t)
	}

	// A released lease is claimable at once, at Attempt+1.
	rec4, err := a.Claim(ctx, "eos-1-50")
	if err != nil || rec4.Attempt != 4 {
		t.Fatalf("claim after release: %+v, %v", rec4, err)
	}
}

func TestLeaseCorruptRecordIsLoud(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newTestLeases(store, "alpha", clk)
	if err := store.Put(ctx, leaseKey("eos-1-50"), []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	// A mangled record must not be silently reclaimed as stale: it could
	// shadow a live owner.
	if _, err := l.Claim(ctx, "eos-1-50"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("claim over corrupt lease: %v, want a loud corrupt-record error", err)
	}
}

func TestLeaseLostRace(t *testing.T) {
	ctx := context.Background()
	store := blobstore.NewMemory()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newTestLeases(store, "alpha", clk)
	b := newTestLeases(store, "beta", clk)

	rec, err := a.Claim(ctx, "task")
	if err != nil {
		t.Fatal(err)
	}
	// beta's write lands after alpha's (simulated by a direct overwrite);
	// alpha's next renew must detect the foreign nonce.
	clk.t = clk.t.Add(2 * time.Minute) // alpha expired
	if _, err := b.Claim(ctx, "task"); err != nil {
		t.Fatal(err)
	}
	var lost *ErrLost
	if err := a.Renew(ctx, &rec); !errors.As(err, &lost) {
		t.Fatalf("renew after overwrite: %v, want *ErrLost", err)
	}
}

// rivalStore runs a rival's write between one of our Puts and the read-back
// that follows it: on a store without compare-and-swap, only the nonce
// read-back can tell that the rival's write, not ours, survived.
type rivalStore struct {
	blobstore.Store
	rival func() // run once, right after the next Put
}

func (s *rivalStore) Put(ctx context.Context, key string, data []byte) error {
	if err := s.Store.Put(ctx, key, data); err != nil {
		return err
	}
	if r := s.rival; r != nil {
		s.rival = nil
		r()
	}
	return nil
}

// TestLeaseReadBackSeesARivalWrite: two claimants that both read an expired
// lease both write, and the one whose write lands second owns it. The
// first must learn that from its read-back — Claim with *ErrHeld, Renew
// with *ErrLost — and never go on as the holder.
func TestLeaseReadBackSeesARivalWrite(t *testing.T) {
	ctx := context.Background()
	base := blobstore.NewMemory()
	store := &rivalStore{Store: base}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	alpha := newTestLeases(store, "alpha", clk)
	beta := newTestLeases(base, "beta", clk)
	gamma := newTestLeases(base, "gamma", clk)
	rivalWrite := func(task string, attempt int) func() {
		return func() {
			rec := LeaseRecord{Version: leaseVersion, Task: task, Owner: "beta", Nonce: "beta-rival",
				Attempt: attempt, Deadline: clk.t.Add(time.Minute)}
			if err := beta.write(ctx, task, rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Claim: gamma's lease has expired; alpha and beta both reclaim it at
	// attempt 2, and beta's write lands last.
	if _, err := gamma.Claim(ctx, "claim"); err != nil {
		t.Fatal(err)
	}
	clk.t = clk.t.Add(2 * time.Minute)
	store.rival = rivalWrite("claim", 2)
	var held *ErrHeld
	if rec, err := alpha.Claim(ctx, "claim"); !errors.As(err, &held) || held.Owner != "beta" {
		t.Fatalf("claim overwritten by a rival: got %+v, %v; want *ErrHeld naming beta", rec, err)
	}

	// Renew: alpha renews after its own deadline passed, and beta's reclaim
	// lands between alpha's write and its read-back.
	rec, err := alpha.Claim(ctx, "renew")
	if err != nil {
		t.Fatal(err)
	}
	clk.t = clk.t.Add(2 * time.Minute)
	store.rival = rivalWrite("renew", rec.Attempt+1)
	var lost *ErrLost
	if err := alpha.Renew(ctx, &rec); !errors.As(err, &lost) || lost.Owner != "beta" {
		t.Fatalf("renew overwritten by a rival: %v, want *ErrLost naming beta", err)
	}
}

// FuzzLeaseRecord: whatever a store hands back under a lease key, Holder and
// Claim never panic. A record that does not decode, or whose version is newer
// than this binary's, is refused loudly by key and left as it was — never
// reclaimed over; any record they accept is one this binary understands.
func FuzzLeaseRecord(f *testing.F) {
	const task = "eos-0000000001-0000000050"
	record := func(version int) []byte {
		return fmt.Appendf(nil, `{"version":%d,"task":%q,"owner":"beta","nonce":"beta-nonce-1","attempt":2,"deadline":"1970-01-01T00:16:40Z"}`, version, task)
	}
	f.Add(record(leaseVersion))
	f.Add([]byte(`{"version":1,"task":"eos-00`))
	f.Add(record(leaseVersion + 1))
	// One store for the whole run: mem:// stores stay registered for the
	// life of the process. Each input overwrites the one key first.
	store := blobstore.NewMemory()
	key := leaseKey(task)
	f.Fuzz(func(t *testing.T, raw []byte) {
		ctx := context.Background()
		if err := store.Put(ctx, key, raw); err != nil {
			t.Fatal(err)
		}
		l := newTestLeases(store, "alpha", &fakeClock{t: time.Unix(1000, 0)})
		var want LeaseRecord
		if json.Unmarshal(raw, &want) != nil || want.Version > leaseVersion {
			if _, _, err := l.Holder(ctx, task); err == nil || !strings.Contains(err.Error(), key) {
				t.Fatalf("Holder over %q = %v, want a refusal naming %s", raw, err, key)
			}
			if _, err := l.Claim(ctx, task); err == nil || !strings.Contains(err.Error(), key) {
				t.Fatalf("Claim over %q = %v, want a refusal naming %s", raw, err, key)
			}
			if got, err := store.Get(ctx, key); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("refused record %q became %q (%v): reclaimed over", raw, got, err)
			}
			return
		}
		rec, ok, err := l.Holder(ctx, task)
		if err != nil || !ok || rec.Version > leaseVersion {
			t.Fatalf("Holder over %q = %+v, %v, %v, want the record accepted at version ≤ %d", raw, rec, ok, err, leaseVersion)
		}
		var held *ErrHeld
		if rec, err := l.Claim(ctx, task); err != nil && !errors.As(err, &held) {
			t.Fatalf("Claim over accepted record %q: %v, want a claim or *ErrHeld", raw, err)
		} else if err == nil && rec.Version != leaseVersion {
			t.Fatalf("Claim wrote version %d, want %d", rec.Version, leaseVersion)
		}
	})
}
