// Package retry is the one spelling of "try again" in the repo: a
// context-aware retry policy with exponential backoff, full jitter and
// bounded attempts, plus the transient-vs-permanent error classification
// the callers share.
//
// Before this package existed the S3 blob-store client, the crawler's
// per-block fetch loop and its head resolution each hand-rolled the same
// loop with subtly different semantics (one jittered, two did not; one
// honoured Retry-After, two did not; all three classified errors ad hoc).
// They now all run on Policy.Do, as does the shard coordinator's
// worker-relaunch loop (internal/coord), so the classification rules and
// the jitter math are written once and unit-tested once.
//
// Classification contract:
//
//   - An error wrapped by Permanent — or any error for which the policy's
//     Retryable func returns false — fails immediately, with no further
//     attempts. The default classifier treats context cancellation,
//     deadline expiry and fs.ErrNotExist as permanent and everything else
//     as transient (a blob store's 404 will never heal by retrying; its
//     500 very often does).
//   - An error implementing AfterHinter (e.g. a rate-limit response
//     carrying Retry-After) raises the next delay to at least its hint,
//     so a polite throttle is never hammered on the policy's own shorter
//     schedule.
//   - Context cancellation always wins: between attempts the backoff
//     sleep aborts immediately, and the returned error satisfies
//     errors.Is(err, ctx.Err()) while still naming the last real failure.
package retry

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"time"
)

// Policy bounds and paces one class of retryable operation. The zero
// value is usable: 4 attempts, 50 ms base backoff, default
// classification. Policies are value types; deriving one from another is
// plain struct copying.
type Policy struct {
	// Attempts is the total number of tries, including the first
	// (default 4; values < 1 mean the default).
	Attempts int
	// Base is the backoff before the second attempt (default 50 ms). The
	// un-jittered backoff doubles each further attempt until one more
	// doubling would overflow the jittered delay, and stays there.
	Base time.Duration
	// Retryable classifies errors: return false to fail immediately
	// (permanent), true to keep trying. Nil means DefaultRetryable.
	// Errors wrapped by Permanent are final regardless of Retryable.
	Retryable func(error) bool
	// OnRetry, when set, observes every scheduled retry: the attempt that
	// just failed (1-based), the error, and the delay before the next
	// attempt. Callers use it for retry counters and diagnostics.
	OnRetry func(attempt int, err error, delay time.Duration)
}

const (
	defaultAttempts = 4
	defaultBase     = 50 * time.Millisecond
)

// AfterHinter is implemented by errors that carry the server's own
// pacing hint (a Retry-After header, a rate-limit window). When the hint
// exceeds the policy's computed delay, the hint wins.
type AfterHinter interface {
	RetryAfter() time.Duration
}

// permanentError marks its wrapped error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as final: Policy.Do returns it without further
// attempts. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked by
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// DefaultRetryable is the classification Do applies when
// Policy.Retryable is nil: context cancellation and deadline expiry are
// permanent (the caller is gone), fs.ErrNotExist is permanent (absence
// does not heal), Permanent-marked errors are permanent, and everything
// else — transport resets, 5xx-mapped errors, injected chaos faults —
// is transient.
func DefaultRetryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, fs.ErrNotExist),
		IsPermanent(err):
		return false
	}
	return true
}

// ExhaustedError reports that every attempt failed with a retryable
// error. It unwraps to the last attempt's error, so errors.Is/As reach
// through it.
type ExhaustedError struct {
	// Op names the operation for the message ("s3: GET key", "shard 2/3").
	Op string
	// Attempts is how many tries were made.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *ExhaustedError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("giving up after %d attempts: %v", e.Attempts, e.Err)
	}
	return fmt.Sprintf("%s: giving up after %d attempts: %v", e.Op, e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// Delay computes the backoff before attempt+1 (attempt is 1-based: pass
// 1 after the first failure): the doubled base with full jitter, landing
// anywhere in [base/2, 3·base/2). The doubling saturates once one more
// would let 3·base/2 overflow a time.Duration (past 34 attempts at a
// 500 ms base), so every attempt count yields a positive delay. Jitter
// comes from math/rand/v2's top-level source, which is safe for
// concurrent use. Exposed so callers that cannot run under Do (e.g.
// loops owning their own select) still pace identically.
func (p Policy) Delay(attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = defaultBase
	}
	for i := 1; i < attempt && base <= math.MaxInt64/3; i++ {
		base *= 2
	}
	return rand.N(base) + base/2
}

// Do runs fn under the policy: up to Attempts tries, backoff with full
// jitter between them, immediate failure on permanent errors, context
// cancellation honoured both during attempts and during backoff sleeps.
// op names the operation in the terminal errors ("s3: GET key"); an
// empty op leaves the wrapped errors bare.
//
// The terminal error is one of:
//   - nil — some attempt succeeded;
//   - the attempt's own error — it was classified permanent;
//   - *ExhaustedError wrapping the last error — attempts ran out;
//   - an error satisfying errors.Is(err, ctx.Err()) naming the last
//     attempt error — the caller's context ended first.
func (p Policy) Do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = defaultAttempts
	}
	retryable := p.Retryable
	if retryable == nil {
		retryable = DefaultRetryable
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return ctxError(op, err, lastErr)
		}
		lastErr = fn(ctx)
		if lastErr == nil {
			return nil
		}
		// The context ending is terminal whatever the classifier says.
		if ctx.Err() != nil {
			return ctxError(op, ctx.Err(), lastErr)
		}
		if !retryable(lastErr) || IsPermanent(lastErr) {
			return lastErr
		}
		if attempt >= attempts {
			return &ExhaustedError{Op: op, Attempts: attempts, Err: lastErr}
		}
		delay := p.Delay(attempt)
		var hinter AfterHinter
		if errors.As(lastErr, &hinter) {
			if hint := hinter.RetryAfter(); hint > delay {
				delay = hint
			}
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, lastErr, delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctxError(op, ctx.Err(), lastErr)
		case <-t.C:
		}
	}
}

// ctxError formats a context-terminated retry: errors.Is finds ctxErr,
// and the last real failure (if any) stays visible in the message.
func ctxError(op string, ctxErr, lastErr error) error {
	switch {
	case lastErr == nil && op == "":
		return ctxErr
	case lastErr == nil:
		return fmt.Errorf("%s: %w", op, ctxErr)
	case op == "":
		return fmt.Errorf("%w (last error: %v)", ctxErr, lastErr)
	}
	return fmt.Errorf("%s: %w (last error: %v)", op, ctxErr, lastErr)
}
