// Package stats provides the small statistical helpers the benchmark
// harness and metrics layer use: accumulators and series formatting.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Welford is an online mean/variance accumulator, suitable for long runs
// where storing every sample would be wasteful.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// Min returns the smallest sample seen (0 if none).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample seen (0 if none).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into this one (parallel reduction).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	mn, mx := w.min, w.max
	if o.min < mn {
		mn = o.min
	}
	if o.max > mx {
		mx = o.max
	}
	*w = Welford{n: n, mean: mean, m2: m2, min: mn, max: mx}
}
