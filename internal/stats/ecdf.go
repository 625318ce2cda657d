package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a fixed
// sample. It backs Figure 1 (CDF of seed availability).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied, then sorted).
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns F(x) = P[X ≤ x].
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Count of values ≤ x = index of first value > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	return quantileSorted(e.sorted, q)
}

// Points returns (x, F(x)) pairs suitable for plotting: the sorted unique
// sample values with their cumulative probabilities.
func (e *ECDF) Points() (xs, fs []float64) {
	n := len(e.sorted)
	if n == 0 {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		if i+1 < n && e.sorted[i+1] == e.sorted[i] {
			continue // keep only the last (highest-F) point per x
		}
		xs = append(xs, e.sorted[i])
		fs = append(fs, float64(i+1)/float64(n))
	}
	return xs, fs
}

// TimeSeries bins (time, value-less) events into fixed-width time buckets
// and reports per-bucket counts — the building block of Figure 7 (peer
// arrivals per interval) and Figure 4 (completions over time).
type TimeSeries struct {
	Width  float64
	counts map[int]int
	maxBin int
}

// NewTimeSeries creates a series with the given bucket width (seconds).
func NewTimeSeries(width float64) *TimeSeries {
	if width <= 0 {
		panic("stats: time series bucket width must be positive")
	}
	return &TimeSeries{Width: width, counts: make(map[int]int), maxBin: -1}
}

// Record counts an event at time t (t < 0 is ignored).
func (ts *TimeSeries) Record(t float64) {
	if t < 0 {
		return
	}
	b := int(t / ts.Width)
	ts.counts[b]++
	if b > ts.maxBin {
		ts.maxBin = b
	}
}

// Counts returns the dense per-bucket counts from bucket 0 through the
// last non-empty bucket.
func (ts *TimeSeries) Counts() []int {
	if ts.maxBin < 0 {
		return nil
	}
	out := make([]int, ts.maxBin+1)
	for b, c := range ts.counts {
		out[b] = c
	}
	return out
}

// CoefficientOfVariation returns stddev/mean of the bucket counts — the
// statistic that separates bursty new-swarm arrivals from steady
// old-swarm arrivals in §4.3.4.
func (ts *TimeSeries) CoefficientOfVariation() float64 {
	cs := ts.Counts()
	if len(cs) == 0 {
		return 0
	}
	var acc Accumulator
	for _, c := range cs {
		acc.Add(float64(c))
	}
	if acc.Mean() == 0 {
		return 0
	}
	return acc.StdDev() / acc.Mean()
}
