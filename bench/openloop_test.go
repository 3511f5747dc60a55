package main

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping and serving both advance it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

// One reply stalls for 50 ms while requests keep falling due every 2 ms on
// average. An open loop charges the stall to every request queued behind
// it: their latency runs from the due time, not from when the generator
// finally got to send them, and the generator reports how late it ran.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const (
		rate    = 500.0
		service = 100 * time.Microsecond
		stall   = 50 * time.Millisecond
		stallAt = 20
		total   = 200
	)
	clock := &fakeClock{t: time.Unix(1_600_000_000, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := 0
	do := func(context.Context, string) (int, []byte, float64, error) {
		d := service
		if served == stallAt {
			d = stall
		}
		served++
		clock.sleep(d)
		if served == total {
			cancel()
		}
		return http.StatusOK, []byte(`{"chains":["eos"]}`), 3, nil
	}
	st := openLoop(ctx, rate, derive(1, 7), &queryMix{rng: derive(1, 8)}, do, clock.now, clock.sleep)

	if st.sent != total || st.failed != 0 {
		t.Fatalf("sent %d, failed %d; want %d, 0", st.sent, st.failed, total)
	}
	if len(st.latencies) != total || len(st.lateness) != total || len(st.ageMS) != total {
		t.Fatalf("recorded %d latencies, %d lateness, %d ages; want %d each", len(st.latencies), len(st.lateness), len(st.ageMS), total)
	}
	// Before the stall the generator keeps up: a request waits at most
	// for the one before it (two arrivals can fall within one service time).
	for i := 0; i < stallAt; i++ {
		if st.lateness[i] >= service || st.latencies[i] >= 2*service {
			t.Fatalf("request %d before the stall: late %v, latency %v; want under %v and %v", i, st.lateness[i], st.latencies[i], service, 2*service)
		}
	}
	if got := st.latencies[stallAt]; got < stall || got >= stall+service {
		t.Errorf("the stalled request's latency = %v, want %v", got, stall)
	}
	// Right behind the stall, requests were due while the connection was
	// busy: they go out late, and their latency includes that wait.
	next := stallAt + 1
	if st.lateness[next] < stall/2 {
		t.Errorf("request behind the stall was sent %v late, want most of the %v stall", st.lateness[next], stall)
	}
	if got, want := st.latencies[next], st.lateness[next]+service; got != want {
		t.Errorf("latency behind the stall = %v, want lateness + service = %v (counted from the due time)", got, want)
	}
	// The backlog drains (service is 20× faster than arrivals): by the end
	// the generator is on schedule again.
	if last := st.lateness[total-1]; last >= service {
		t.Errorf("still %v late at the end; the backlog should have drained", last)
	}
}

func TestOpenLoopStopsWithoutCountingTheCutRequest(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_600_000_000, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	do := func(ctx context.Context, _ string) (int, []byte, float64, error) {
		calls++
		if calls == 5 {
			cancel()
			return 0, nil, 0, ctx.Err() // the round ended under this request
		}
		return http.StatusOK, nil, 0, nil
	}
	st := openLoop(ctx, 500, derive(3, 1), &queryMix{rng: derive(3, 2)}, do, clock.now, clock.sleep)
	if st.sent != 4 || st.failed != 0 {
		t.Errorf("sent %d, failed %d; want 4, 0 — a request cut off by the end of the round is not a failure", st.sent, st.failed)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	n := 0
	do := func(context.Context, string) (int, []byte, float64, error) {
		n++
		if n == 3 {
			return http.StatusNotFound, nil, 0, nil
		}
		return http.StatusOK, nil, 0, nil
	}
	st := closedLoop(context.Background(), 10, &queryMix{rng: derive(1, 1), chains: []string{"eos"}}, do)
	if st.sent != 10 || st.failed != 1 || st.firstErr == nil {
		t.Errorf("sent %d, failed %d, firstErr %v; want 10, 1, an error", st.sent, st.failed, st.firstErr)
	}
}

// The mix asks per-chain questions only about chains the server has
// listed: before any /v1/chains reply it can only ask for the list.
func TestQueryMixNamesOnlyListedChains(t *testing.T) {
	m := &queryMix{rng: derive(9, 9)}
	for i := 0; i < 20; i++ {
		if p := m.next(); p != "/v1/chains" {
			t.Fatalf("asked %s before any chain was listed", p)
		}
	}
	m.observe("/v1/chains", []byte(`{"epoch":3,"chains":["tezos"]}`))
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		p := m.next()
		seen[p] = true
		switch p {
		case "/v1/chains", "/v1/status", "/v1/summary/tezos", "/v1/figures/tezos", "/v1/percentiles/tezos?p=50,90,99":
		default:
			t.Fatalf("unexpected path %s", p)
		}
	}
	if len(seen) != 5 {
		t.Errorf("the mix drew %d distinct paths in 400 draws, want all 5: %v", len(seen), seen)
	}
}
