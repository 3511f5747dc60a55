package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// queryClient is the benchmark's one HTTP client connection to the serve
// handler. Requests are sequential on it, as a caller without pipelining
// sends them.
type queryClient struct {
	base string
	http *http.Client
	buf  []byte
}

func newQueryClient(base string) *queryClient {
	return &queryClient{
		base: base,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		buf:  make([]byte, 0, 64<<10),
	}
}

func (c *queryClient) close() { c.http.CloseIdleConnections() }

// get issues one request and returns the status, the body (valid until
// the next call) and the snapshot age the server stamped on the reply.
func (c *queryClient) get(ctx context.Context, path string) (status int, body []byte, ageMS float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		n, rerr := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return resp.StatusCode, nil, 0, rerr
		}
	}
	age, _ := strconv.ParseFloat(resp.Header.Get("X-Serve-Age-Ms"), 64) // absent header reads as 0
	return resp.StatusCode, c.buf, age, nil
}

// queryMix draws request paths from a seeded mix of the serving API's
// endpoints. Per-chain paths name only chains a /v1/chains reply has
// listed, so the mix never asks for a chain the server has not
// registered yet (which would be a 404, an operation that fails).
type queryMix struct {
	rng    splitmix
	chains []string
}

func (m *queryMix) next() string {
	r := m.rng.next() % 16
	if len(m.chains) == 0 || r == 0 {
		return "/v1/chains"
	}
	c := m.chains[m.rng.next()%uint64(len(m.chains))]
	switch {
	case r < 4:
		return "/v1/status"
	case r < 8:
		return "/v1/summary/" + c
	case r < 11:
		return "/v1/figures/" + c
	default:
		return "/v1/percentiles/" + c + "?p=50,90,99"
	}
}

// observe lets the mix learn the registered chains from a /v1/chains body.
func (m *queryMix) observe(path string, body []byte) {
	if path != "/v1/chains" {
		return
	}
	var reply struct {
		Chains []string `json:"chains"`
	}
	if json.Unmarshal(body, &reply) == nil {
		m.chains = reply.Chains
	}
}

// loopStats is what a query loop saw.
type loopStats struct {
	sent      int64
	failed    int64           // transport errors and non-200 replies
	latencies []time.Duration // open loop: completion minus due time
	lateness  []time.Duration // open loop: actual send minus due time
	ageMS     []float64       // snapshot age stamped on each reply
	firstErr  error
}

func (s *loopStats) record(status int, err error, path string) {
	s.sent++
	if err == nil && status == http.StatusOK {
		return
	}
	s.failed++
	if s.firstErr == nil {
		if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		s.firstErr = fmt.Errorf("GET %s: %w", path, err)
	}
}

// openLoop sends requests on a seeded Poisson schedule at rate per second
// until ctx ends, whatever the server's pace: a request's latency is
// counted from the instant it was DUE, so a stall's cost to every request
// queued behind it is measured, and lateness reports how far behind its
// own schedule the generator ran. sleep and now are time.Sleep and
// time.Now outside tests.
func openLoop(ctx context.Context, rate float64, seed splitmix, mix *queryMix,
	do func(ctx context.Context, path string) (int, []byte, float64, error),
	now func() time.Time, sleep func(time.Duration)) loopStats {
	var st loopStats
	due := now()
	for {
		// Exponential gaps: independent users, not a metronome.
		gap := -math.Log(1-seed.float()) / rate
		due = due.Add(time.Duration(gap * float64(time.Second)))
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		if ctx.Err() != nil {
			return st
		}
		path := mix.next()
		sent := now()
		status, body, age, err := do(ctx, path)
		if err != nil && ctx.Err() != nil {
			return st // cut off by the end of the round, not a failure
		}
		done := now()
		st.record(status, err, path)
		st.latencies = append(st.latencies, done.Sub(due))
		st.lateness = append(st.lateness, sent.Sub(due))
		st.ageMS = append(st.ageMS, age)
		if err == nil {
			mix.observe(path, body)
		}
	}
}

// closedLoop sends n requests back to back: the next goes out when the
// previous reply is in.
func closedLoop(ctx context.Context, n int, mix *queryMix,
	do func(ctx context.Context, path string) (int, []byte, float64, error)) loopStats {
	var st loopStats
	for i := 0; i < n; i++ {
		path := mix.next()
		status, body, _, err := do(ctx, path)
		st.record(status, err, path)
		if err == nil {
			mix.observe(path, body)
		}
	}
	return st
}
