// Package stats provides the summary statistics used by the measurement
// analysis, the simulators, and the experiment harness: streaming
// accumulators, quantiles, empirical CDFs, histograms, boxplot summaries,
// confidence intervals, and time-binned series.
//
// Everything is plain float64 math on slices — no external numeric
// dependencies — with the numerically stable formulations (Welford) where
// it matters.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Accumulator maintains streaming count/mean/variance via Welford's
// algorithm plus min and max. The zero value is ready to use.
type Accumulator struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// AddAll records every observation in xs.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// Merge folds another accumulator into a (parallel Welford merge).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns sqrt(Var).
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns a 95% normal-approximation confidence half-width for the
// mean. (At the sample sizes used in the experiments, the z and t
// critical values are indistinguishable.)
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Mean returns the mean of xs, or an error on empty input.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// MustMean is Mean for callers that have already checked non-emptiness.
func MustMean(xs []float64) float64 {
	m, err := Mean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	var acc Accumulator
	acc.AddAll(xs)
	return acc.Var(), nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs does not need to be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// Median returns the 0.5-quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// FiveNumber is the boxplot summary used to render Figure 6(c): quartiles
// plus the 5th and 95th percentiles ("the boxplots and lines show the
// distribution quartiles and 5th and 95th percentiles").
type FiveNumber struct {
	P5, Q1, Median, Q3, P95 float64
	Mean                    float64
	N                       int
}

// Summarize computes a FiveNumber from xs.
func Summarize(xs []float64) (FiveNumber, error) {
	if len(xs) == 0 {
		return FiveNumber{}, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	m, _ := Mean(xs)
	return FiveNumber{
		P5:     quantileSorted(s, 0.05),
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.50),
		Q3:     quantileSorted(s, 0.75),
		P95:    quantileSorted(s, 0.95),
		Mean:   m,
		N:      len(xs),
	}, nil
}
