package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", a.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if !almostEqual(a.Var(), 32.0/7, 1e-12) {
		t.Fatalf("var = %v", a.Var())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
	a.Add(3)
	if a.Var() != 0 || a.Mean() != 3 {
		t.Fatalf("single observation: mean=%v var=%v", a.Mean(), a.Var())
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
	}
	var whole, left, right Accumulator
	whole.AddAll(xs)
	left.AddAll(xs[:300])
	right.AddAll(xs[300:])
	left.Merge(&right)
	if !almostEqual(whole.Mean(), left.Mean(), 1e-9) {
		t.Fatalf("merged mean %v vs %v", left.Mean(), whole.Mean())
	}
	if !almostEqual(whole.Var(), left.Var(), 1e-9) {
		t.Fatalf("merged var %v vs %v", left.Var(), whole.Var())
	}
	if whole.Min() != left.Min() || whole.Max() != left.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestAccumulatorMergeEmptyCases(t *testing.T) {
	var a, b Accumulator
	b.Add(4)
	a.Merge(&b) // empty ← non-empty
	if a.N() != 1 || a.Mean() != 4 {
		t.Fatal("merge into empty failed")
	}
	var c Accumulator
	a.Merge(&c) // non-empty ← empty
	if a.N() != 1 {
		t.Fatal("merge of empty changed state")
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
	if m, err := Mean([]float64{1, 2, 3}); err != nil || !almostEqual(m, 2, 1e-12) {
		t.Fatalf("Mean = %v, %v", m, err)
	}
}

func TestVariance(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{1, 2, 3, 4})
	if v := a.Var(); !almostEqual(v, 5.0/3, 1e-12) {
		t.Fatalf("var = %v", v)
	}
	var one Accumulator
	one.Add(1)
	if v := one.Var(); v != 0 {
		t.Fatalf("variance of a single sample = %v, want 0", v)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	med, err := Median(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(med, 3.5, 1e-12) {
		t.Fatalf("median = %v", med)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 9 {
		t.Fatalf("extremes = %v %v", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range quantile should error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatal("empty quantile should error")
	}
	// Input must not be modified.
	if xs[0] != 3 {
		t.Fatal("Quantile modified its input")
	}
}

func TestQuantileSingle(t *testing.T) {
	q, err := Quantile([]float64{7}, 0.3)
	if err != nil || q != 7 {
		t.Fatalf("single-element quantile = %v, %v", q, err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Median, 50, 1e-9) || !almostEqual(s.Q1, 25, 1e-9) || !almostEqual(s.Q3, 75, 1e-9) {
		t.Fatalf("quartiles: %+v", s)
	}
	if !almostEqual(s.P5, 5, 1e-9) || !almostEqual(s.P95, 95, 1e-9) {
		t.Fatalf("percentiles: %+v", s)
	}
	if s.N != 101 || !almostEqual(s.Mean, 50, 1e-9) {
		t.Fatalf("N/mean: %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatal("empty summarize should error")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var small, large Accumulator
	for i := 0; i < 100; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

// Property: Welford accumulator agrees with the two-pass formulas.
func TestAccumulatorMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 7
		}
		var a Accumulator
		a.AddAll(xs)
		m, _ := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		v := ss / float64(len(xs)-1)
		return almostEqual(a.Mean(), m, 1e-6*math.Abs(m)+1e-9) &&
			almostEqual(a.Var(), v, 1e-6*v+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int8, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q1 := float64(qa%101) / 100
		q2 := float64(qb%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, err1 := Quantile(xs, q1)
		v2, err2 := Quantile(xs, q2)
		return err1 == nil && err2 == nil && v1 <= v2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
