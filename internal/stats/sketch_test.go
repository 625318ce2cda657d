package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileSketchAgainstECDF(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewAvailabilitySketch()
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mixture resembling availability data: mass at 0, mass near 1,
		// and a spread in between.
		var x float64
		switch {
		case i%5 == 0:
			x = 0
		case i%5 == 1:
			x = 1
		default:
			x = r.Float64()
		}
		s.Add(x)
		xs = append(xs, x)
	}
	e := NewECDF(xs)
	tol := s.Resolution()
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got, want := s.Quantile(q), e.Quantile(q)
		if math.Abs(got-want) > tol+1e-12 {
			t.Errorf("Quantile(%v) = %v, ECDF %v (tol %v)", q, got, want, tol)
		}
	}
	for _, x := range []float64{0, 0.2, 0.5, 0.8, 1} {
		got, want := s.At(x), e.At(x)
		// A bin of probability mass can straddle x.
		if math.Abs(got-want) > 0.25 {
			t.Errorf("At(%v) = %v, ECDF %v", x, got, want)
		}
	}
	if s.N() != e.N() {
		t.Fatalf("N = %d, want %d", s.N(), e.N())
	}
}

func TestQuantileSketchMergeEqualsConcat(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	whole := NewAvailabilitySketch()
	parts := make([]*QuantileSketch, 4)
	for i := range parts {
		parts[i] = NewAvailabilitySketch()
	}
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		whole.Add(x)
		parts[i%4].Add(x)
	}
	merged := NewAvailabilitySketch()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge metadata mismatch: %d/%v/%v vs %d/%v/%v",
			merged.N(), merged.Min(), merged.Max(), whole.N(), whole.Min(), whole.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v, whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestQuantileSketchEdges(t *testing.T) {
	s := NewQuantileSketch(0, 1, 16)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch quantile must be NaN")
	}
	if s.At(0.5) != 0 {
		t.Fatal("empty sketch CDF must be 0")
	}
	s.Add(math.NaN()) // ignored
	if s.N() != 0 {
		t.Fatal("NaN must be ignored")
	}
	// Out-of-range values clamp into edge bins but keep exact min/max.
	s.Add(-3)
	s.Add(7)
	if s.Min() != -3 || s.Max() != 7 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if q := s.Quantile(0); q != -3 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := s.Quantile(1); q != 7 {
		t.Fatalf("Quantile(1) = %v", q)
	}
	// Single value: every quantile is that value.
	one := NewQuantileSketch(0, 1, 16)
	one.Add(0.42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); math.Abs(got-0.42) > one.Resolution() {
			t.Fatalf("Quantile(%v) = %v", q, got)
		}
	}
	// Clone independence.
	c := one.Clone()
	c.Add(0.9)
	if one.N() != 1 || c.N() != 2 {
		t.Fatalf("clone not independent: %d/%d", one.N(), c.N())
	}
	// Geometry mismatch must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch must panic")
		}
	}()
	one.Merge(NewQuantileSketch(0, 2, 16))
}

// TestQuantileSketchGeometryValidation pins the constructor's contract:
// every degenerate geometry panics at construction instead of surfacing
// later as a divide-by-zero bin index or an undefined float→int
// conversion inside Add.
func TestQuantileSketchGeometryValidation(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{"zero bins", 0, 1, 0},
		{"negative bins", 0, 1, -4},
		{"lo equals hi", 0.5, 0.5, 16},
		{"inverted range", 1, 0, 16},
		{"NaN lo", math.NaN(), 1, 16},
		{"NaN hi", 0, math.NaN(), 16},
		{"-Inf lo", math.Inf(-1), 1, 16},
		{"+Inf hi", 0, math.Inf(1), 16},
		{"finite pair with overflowing width", -math.MaxFloat64, math.MaxFloat64, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewQuantileSketch(%v, %v, %d) must panic", tc.lo, tc.hi, tc.bins)
				}
			}()
			NewQuantileSketch(tc.lo, tc.hi, tc.bins)
		})
	}
}

// TestQuantileSketchAddHiEdgeBin pins the upper-edge binning rule:
// x == Hi maps exactly onto the bin boundary past the last bin and must
// clamp into the last bin — not panic, not vanish.
func TestQuantileSketchAddHiEdgeBin(t *testing.T) {
	s := NewQuantileSketch(0, 1, 8)
	s.Add(1.0)
	if got := s.counts[len(s.counts)-1]; got != 1 {
		t.Fatalf("Add(Hi) landed %d observations in the last bin, want 1", got)
	}
	for i, c := range s.counts[:len(s.counts)-1] {
		if c != 0 {
			t.Fatalf("Add(Hi) leaked into bin %d", i)
		}
	}
	if s.N() != 1 || s.Min() != 1 || s.Max() != 1 {
		t.Fatalf("N/Min/Max = %d/%v/%v after Add(Hi)", s.N(), s.Min(), s.Max())
	}
	if q := s.Quantile(0.5); q != 1 {
		t.Fatalf("Quantile(0.5) = %v after Add(Hi), want 1", q)
	}
	if f := s.At(1); f != 1 {
		t.Fatalf("At(Hi) = %v, want 1", f)
	}

	// Lo lands in the first bin; the two edges stay distinguishable.
	s.Add(0)
	if s.counts[0] != 1 {
		t.Fatalf("Add(Lo) must land in the first bin")
	}
	if q := s.Quantile(0.25); q < 0 || q > s.Resolution() {
		t.Fatalf("Quantile(0.25) = %v, want within one bin of 0", q)
	}
}

// TestQuantileSketchRemoveInvertsAdd drives a random sequence of Add and
// Remove over a small pool of values (so extremes have multiplicities
// and sole holders both occur) and requires the sketch to stay
// byte-identical, exact min/max included, to a fresh sketch of the
// surviving sample — re-deriving the extremes only when told to.
func TestQuantileSketchRemoveInvertsAdd(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pool := []float64{0, 0, 0.125, 0.3, 0.3000001, 0.77, 1, 1, math.NaN()}
	s := NewAvailabilitySketch()
	var sample []float64
	rederives := 0
	for step := 0; step < 5000; step++ {
		if len(sample) == 0 || r.Intn(3) > 0 {
			x := pool[r.Intn(len(pool))]
			s.Add(x)
			sample = append(sample, x)
		} else {
			i := r.Intn(len(sample))
			s.Remove(sample[i])
			sample[i] = sample[len(sample)-1]
			sample = sample[:len(sample)-1]
			if r.Intn(4) == 0 && len(sample) > 3 {
				continue // let a lost extreme ride: a later Add may restore it
			}
		}
		if s.ExtremesLost() {
			rederives++
			s.RederiveExtremes(func(observe func(float64)) {
				for _, x := range sample {
					observe(x)
				}
			})
		}
		fresh := NewAvailabilitySketch()
		for _, x := range sample {
			fresh.Add(x)
		}
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("step %d: sketch after add/remove differs from a fresh sketch of the sample\n got %s\nwant %s", step, got, want)
		}
	}
	if rederives == 0 || rederives > 2500 {
		t.Fatalf("%d re-derivations in 5000 steps: the sole-holder path is not being exercised as intended", rederives)
	}

	// A decoded sketch knows of one holder per extreme: removing it is
	// reported, never silently wrong.
	var wire QuantileSketch
	b, _ := s.MarshalJSON()
	if err := wire.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if wire.N() > 1 {
		wire.Remove(wire.Min())
		if !wire.ExtremesLost() {
			t.Fatal("removing a decoded sketch's min did not report the extreme lost")
		}
	}
}
