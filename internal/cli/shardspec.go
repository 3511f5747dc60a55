package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// ShardSpec is the -shard i/n flag of a distributed crawl: this process is
// shard i of n and crawls the i-th contiguous slice of the block range.
// The zero value means "not sharded". It implements flag.Value.
type ShardSpec struct {
	I, N int
}

// String renders "i/n", or "" when unset (the flag package prints this as
// the default).
func (s *ShardSpec) String() string {
	if s == nil || s.N == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.I, s.N)
}

// Set parses "i/n" with 1 <= i <= n.
func (s *ShardSpec) Set(v string) error {
	is, ns, ok := strings.Cut(v, "/")
	if !ok {
		return fmt.Errorf("shard spec %q is not i/n (e.g. -shard 2/3)", v)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return fmt.Errorf("shard index %q: %v", is, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return fmt.Errorf("shard count %q: %v", ns, err)
	}
	if n < 1 || i < 1 || i > n {
		return fmt.Errorf("shard spec %d/%d out of range: need 1 <= i <= n", i, n)
	}
	s.I, s.N = i, n
	return nil
}

// Enabled reports whether a shard spec was passed.
func (s *ShardSpec) Enabled() bool { return s.N > 0 }

// Cut returns this shard's contiguous slice of [from, to]. The N slices
// tile the range exactly — no overlap, no gap — so cmd/merge's range
// validation accepts any complete set of them. The first span%N shards
// take one extra block. A range with fewer blocks than shards is an
// error: the empty shards would emit nothing and the merge would read as
// a gap.
func (s *ShardSpec) Cut(from, to int64) (int64, int64, error) {
	if from < 1 || to < from {
		return 0, 0, fmt.Errorf("cannot shard [%d, %d]: not a block range", from, to)
	}
	span := to - from + 1
	if span < int64(s.N) {
		return 0, 0, fmt.Errorf("cannot split %d blocks across %d shards: fewer blocks than shards", span, s.N)
	}
	base, rem := span/int64(s.N), span%int64(s.N)
	i := int64(s.I - 1)
	lo := from + i*base + min(i, rem)
	hi := lo + base - 1
	if i < rem {
		hi++
	}
	return lo, hi, nil
}
