package chain

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded math/rand source so that every simulation run is
// reproducible. All workload generators draw from an RNG derived from a
// top-level scenario seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Pareto returns a Pareto-distributed value with minimum xm and shape alpha.
// Heavy-tailed draws model the extreme skew of per-account activity that the
// paper observes (18 accounts producing half of all XRP traffic).
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}

// WeightedPick returns an index in [0, len(weights)) chosen proportionally to
// weights. Zero or negative weights are treated as zero. It panics if the
// total weight is not positive.
func (g *RNG) WeightedPick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("chain: WeightedPick with non-positive total weight")
	}
	x := g.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
