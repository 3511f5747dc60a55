package retry

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"testing"
	"time"
)

// fastPolicy keeps test sleeps in the microsecond range.
func fastPolicy() Policy {
	return Policy{Attempts: 4, Base: 10 * time.Microsecond}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	p := fastPolicy()
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		if calls++; calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := fastPolicy()
	calls := 0
	base := errors.New("still broken")
	err := p.Do(context.Background(), "fetch block 7", func(context.Context) error {
		calls++
		return base
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error %v, want *ExhaustedError", err)
	}
	if ex.Attempts != 4 || ex.Op != "fetch block 7" {
		t.Errorf("ExhaustedError = %+v", ex)
	}
	if !errors.Is(err, base) {
		t.Errorf("exhausted error does not unwrap to the last failure: %v", err)
	}
	if want := "fetch block 7: giving up after 4 attempts: still broken"; err.Error() != want {
		t.Errorf("message %q, want %q", err.Error(), want)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	p := fastPolicy()
	calls := 0
	perm := Permanent(errors.New("bad request"))
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return perm
	})
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, perm) || !IsPermanent(err) {
		t.Fatalf("error = %v, want the permanent error back", err)
	}
}

func TestDefaultRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{errors.New("transport reset"), true},
		{fmt.Errorf("wrapped: %w", errors.New("x")), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("get: %w", fs.ErrNotExist), false},
		{Permanent(errors.New("403")), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := DefaultRetryable(c.err); got != c.want {
			t.Errorf("DefaultRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDoCustomClassifier(t *testing.T) {
	p := fastPolicy()
	p.Retryable = func(err error) bool { return err.Error() == "again" }
	calls := 0
	err := p.Do(context.Background(), "", func(context.Context) error {
		calls++
		if calls == 1 {
			return errors.New("again")
		}
		return errors.New("fatal")
	})
	if calls != 2 || err == nil || err.Error() != "fatal" {
		t.Fatalf("calls=%d err=%v, want 2 calls ending on the permanent error", calls, err)
	}
}

func TestDoCancelDuringBackoff(t *testing.T) {
	p := fastPolicy()
	p.Base = 10 * time.Second // force a long sleep after the first failure
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, "get k", func(context.Context) error { return errors.New("boom") })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v, want context.Canceled", err)
		}
		// The last real failure must stay visible for diagnosis.
		if got := err.Error(); got != "get k: context canceled (last error: boom)" {
			t.Errorf("message %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do ignored cancellation during backoff")
	}
}

func TestDoCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := fastPolicy().Do(ctx, "", func(context.Context) error { calls++; return nil })
	if calls != 0 {
		t.Fatalf("cancelled context still attempted: %d calls", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

func TestDoParentDeadlineIsTerminal(t *testing.T) {
	p := fastPolicy()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	calls := 0
	err := p.Do(ctx, "", func(ctx context.Context) error {
		calls++
		<-ctx.Done()
		return ctx.Err()
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (parent deadline must stop the loop)", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
}

// hintedError carries a server pacing hint.
type hintedError struct{ after time.Duration }

func (e hintedError) Error() string             { return "rate limited" }
func (e hintedError) RetryAfter() time.Duration { return e.after }

func TestDoHonoursRetryAfterHint(t *testing.T) {
	p := fastPolicy()
	var delays []time.Duration
	p.OnRetry = func(_ int, _ error, d time.Duration) { delays = append(delays, d) }
	calls := 0
	err := p.Do(context.Background(), "", func(context.Context) error {
		if calls++; calls == 1 {
			return hintedError{after: 30 * time.Millisecond}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] < 30*time.Millisecond {
		t.Fatalf("delays = %v, want the 30ms Retry-After hint to win over the µs backoff", delays)
	}
}

func TestDelayDoublesWithJitter(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond}
	for attempt, base := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		9: 25600 * time.Millisecond,
	} {
		for i := 0; i < 1000; i++ {
			d := p.Delay(attempt)
			if d < base/2 || d >= base+base/2 {
				t.Fatalf("Delay(%d) = %v outside [%v, %v)", attempt, d, base/2, base+base/2)
			}
		}
	}
}

// TestDelaySaturates: a policy with no ceiling of its own — every one the
// tree builds — must keep pacing however many attempts a caller allows
// (coordinate's -attempts is a user flag). Doubling 500 ms (coordinate's
// default -backoff) overflows a time.Duration's jittered range after 34
// attempts; from there on every delay stays at the last one that fits.
func TestDelaySaturates(t *testing.T) {
	p := Policy{Base: 500 * time.Millisecond}
	top := 500 * time.Millisecond << 33 // Delay(34)'s un-jittered base
	for attempt := 1; attempt <= 1000; attempt++ {
		d := p.Delay(attempt)
		if d <= 0 {
			t.Fatalf("Delay(%d) = %v, want a positive delay", attempt, d)
		}
		if attempt >= 34 && (d < top/2 || d >= top+top/2) {
			t.Fatalf("Delay(%d) = %v outside the saturated range [%v, %v)", attempt, d, top/2, top+top/2)
		}
	}
}

func TestOnRetryObservesEveryRetry(t *testing.T) {
	p := fastPolicy()
	var attempts []int
	p.OnRetry = func(attempt int, err error, _ time.Duration) { attempts = append(attempts, attempt) }
	_ = p.Do(context.Background(), "", func(context.Context) error { return errors.New("x") })
	// 4 attempts = 3 scheduled retries, observed as attempts 1..3.
	if len(attempts) != 3 || attempts[0] != 1 || attempts[2] != 3 {
		t.Fatalf("OnRetry attempts = %v, want [1 2 3]", attempts)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must stay nil")
	}
	if IsPermanent(errors.New("plain")) {
		t.Fatal("plain error classified permanent")
	}
}
