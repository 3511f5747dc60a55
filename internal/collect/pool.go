package collect

import "context"

// Pool bounds in-flight block fetches across concurrent crawls. The
// pipeline runs its chain stages in parallel; sharing one pool keeps the
// total fetch concurrency at the configured worker count no matter how
// many crawls are active, the way one machine's crawler budget was shared
// across the paper's three chains. Retry backoff sleeps do not hold a
// slot, so a rate-limited endpoint never starves the other chains.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting n concurrent fetches (n <= 0 selects 4,
// matching the crawler's default worker count).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = 4
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// acquire blocks until a slot frees or ctx is done.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.sem }
