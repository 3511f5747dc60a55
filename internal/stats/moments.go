package stats

import "math"

// Welford accumulates streaming mean and variance without retaining samples.
// The paper's Figure 6 reports avg and stdev of transactions per receiver
// for the top Tezos senders; the pipeline computes those with this type.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean (zero when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the Bessel-corrected variance.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// SampleStdev returns the sample standard deviation.
func (w *Welford) SampleStdev() float64 { return math.Sqrt(w.SampleVariance()) }

// Merge combines another accumulator into w (parallel aggregation).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	mean := w.mean + delta*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}
