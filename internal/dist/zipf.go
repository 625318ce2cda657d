package dist

import (
	"math"
	"math/rand"
)

// ZipfWeights returns the normalised Zipf popularity vector
// p_k = c/k^delta for k = 1..n (§3.3.1: skewed peer preferences over the
// K contents of a bundle).
func ZipfWeights(n int, delta float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for k := 1; k <= n; k++ {
		w[k-1] = 1 / math.Pow(float64(k), delta)
		sum += w[k-1]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Categorical samples an index in [0, len(weights)) with probability
// proportional to weights.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a categorical distribution over the given
// non-negative weights. It panics on empty or all-zero weights.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("dist: categorical needs at least one weight")
	}
	cum := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		if w < 0 {
			panic("dist: categorical weight must be non-negative")
		}
		acc += w
		cum[i] = acc
	}
	if acc <= 0 {
		panic("dist: categorical weights must sum to a positive value")
	}
	for i := range cum {
		cum[i] /= acc
	}
	cum[len(cum)-1] = 1
	return &Categorical{cum: cum}
}

// Sample draws an index.
func (c *Categorical) Sample(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u <= c.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// PoissonCount samples a Poisson random count with the given mean using
// Knuth's product method for small means and a normal approximation with
// continuity correction for large means. It is used by the snapshot
// generator (file counts, download counts).
func PoissonCount(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	x := math.Round(mean + math.Sqrt(mean)*r.NormFloat64())
	if x < 0 {
		return 0
	}
	return int(x)
}

// PoissonPMF returns the Poisson probability mass e^{-mean}·mean^i/i!,
// computed stably in log space. It backs eq. (13)'s Poisson weighting of
// residual busy periods.
func PoissonPMF(mean float64, i int) float64 {
	if mean < 0 || i < 0 {
		return 0
	}
	if mean == 0 {
		if i == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(i) + 1)
	return math.Exp(-mean + float64(i)*math.Log(mean) - lg)
}
