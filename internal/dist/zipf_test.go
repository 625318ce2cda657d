package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfWeightsNormalised(t *testing.T) {
	for _, n := range []int{1, 4, 100} {
		w := ZipfWeights(n, 0.8)
		var sum float64
		for _, x := range w {
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("n=%d: weights sum %v", n, sum)
		}
	}
}

func TestZipfWeightsDecreasing(t *testing.T) {
	w := ZipfWeights(10, 1.0)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatalf("weights not strictly decreasing at %d: %v", i, w)
		}
	}
	// δ=1: p1/p2 = 2.
	if math.Abs(w[0]/w[1]-2) > 1e-12 {
		t.Fatalf("p1/p2 = %v, want 2", w[0]/w[1])
	}
}

func TestZipfWeightsUniformAtDeltaZero(t *testing.T) {
	w := ZipfWeights(5, 0)
	for _, x := range w {
		if math.Abs(x-0.2) > 1e-12 {
			t.Fatalf("δ=0 should be uniform, got %v", w)
		}
	}
}

func TestZipfWeightsEmpty(t *testing.T) {
	if w := ZipfWeights(0, 1); w != nil {
		t.Fatalf("n=0 gave %v", w)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c := NewCategorical([]float64{1, 2, 7})
	r := NewRand(21)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, w := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("category %d frequency %v, want %v", i, got, w)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewCategorical(nil) },
		func() { NewCategorical([]float64{0, 0}) },
		func() { NewCategorical([]float64{1, -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPoissonCountMean(t *testing.T) {
	r := NewRand(22)
	for _, mean := range []float64{0.5, 5, 80} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(PoissonCount(r, mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.02 {
			t.Fatalf("mean %v: empirical %v", mean, got)
		}
	}
}

func TestPoissonCountZero(t *testing.T) {
	if PoissonCount(NewRand(1), 0) != 0 {
		t.Fatal("zero-mean Poisson must return 0")
	}
	if PoissonCount(NewRand(1), -3) != 0 {
		t.Fatal("negative-mean Poisson must return 0")
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, mean := range []float64{0.1, 1, 10, 133} {
		var sum float64
		for i := 0; i < 2000; i++ {
			sum += PoissonPMF(mean, i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mean %v: PMF sums to %v", mean, sum)
		}
	}
}

func TestPoissonPMFKnownValues(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Fatalf("PMF(0,0) = %v", got)
	}
	if got := PoissonPMF(2, 0); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Fatalf("PMF(2,0) = %v", got)
	}
	if got := PoissonPMF(2, 1); math.Abs(got-2*math.Exp(-2)) > 1e-12 {
		t.Fatalf("PMF(2,1) = %v", got)
	}
	if got := PoissonPMF(5, -1); got != 0 {
		t.Fatalf("PMF(5,-1) = %v", got)
	}
}

// Property: PMF is non-negative for a range of means and indices and its
// mode is near the mean.
func TestPoissonPMFProperty(t *testing.T) {
	f := func(m uint8, i uint8) bool {
		mean := float64(m%50) + 0.5
		return PoissonPMF(mean, int(i)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Zipf weights are a valid probability vector for any n, δ.
func TestZipfWeightsProperty(t *testing.T) {
	f := func(n uint8, d uint8) bool {
		nn := int(n%40) + 1
		delta := float64(d) / 32
		w := ZipfWeights(nn, delta)
		var sum float64
		for _, x := range w {
			if x <= 0 || x > 1 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
