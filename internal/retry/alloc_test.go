package retry

import (
	"context"
	"testing"

	"repro/internal/testkit"
)

// TestDoFirstAttemptSucceedsZeroAllocs: every retried blob-store and fetch
// call in the tree goes through Do, and nearly all of them succeed first
// try — that path (no timer, no error to wrap) must cost no allocation.
func TestDoFirstAttemptSucceedsZeroAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	p := Policy{Attempts: 4}
	ctx := context.Background()
	fn := func(context.Context) error { return nil }
	run := func() {
		if err := p.Do(ctx, "op", fn); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("Policy.Do: %.1f allocs/op when the first attempt succeeds, want 0", allocs)
	}
}
