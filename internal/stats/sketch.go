package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// QuantileSketch is a mergeable, fixed-resolution quantile summary over
// a bounded value range [Lo, Hi]: a histogram with equal-width bins plus
// exact min/max. It is the streaming counterpart of ECDF for the online
// ingestion path (internal/ingest), where per-swarm availabilities
// arrive continuously across shards and must be summarised without
// retaining the sample.
//
// Accuracy: any quantile (and any CDF evaluation) is exact up to one bin
// width, (Hi−Lo)/bins — e.g. ±1/4096 ≈ 2.4e-4 for availabilities in
// [0,1] at the default resolution. Sketches with identical geometry
// merge losslessly (the merged sketch equals the sketch of the
// concatenated stream), which is what lets each ingest shard keep its
// own sketch and a reader fold them on demand.
//
// Min and Max are exact — they are part of the wire form and clamp
// Quantile — so they are kept with their multiplicity (how many
// observations equal the extreme). That is what makes Remove possible
// without retaining the sample: an extreme stays known until its last
// holder leaves.
type QuantileSketch struct {
	Lo, Hi   float64
	counts   []uint64
	n        uint64
	min, max float64
	// minN/maxN are how many observations are known to equal min/max —
	// a lower bound (a sketch decoded from the wire knows of one), so
	// Remove can only report an extreme lost early, never late. Zero
	// means the last holder left: min (max) is then only a lower (upper)
	// bound on the true extreme.
	minN, maxN uint64
}

// DefaultSketchBins is the resolution used by the ingestion pipeline.
const DefaultSketchBins = 4096

// NewQuantileSketch creates an empty sketch over [lo, hi] with the given
// number of bins. It panics on invalid geometry: non-positive bins, a
// degenerate or inverted range (lo >= hi, which would make Resolution
// zero-or-negative and bin() divide by zero), or non-finite bounds
// (NaN/±Inf lo or hi, or a finite pair whose width overflows), under
// which bin() would convert NaN/Inf to int — undefined in Go.
func NewQuantileSketch(lo, hi float64, bins int) *QuantileSketch {
	if bins <= 0 || !(hi > lo) {
		panic("stats: quantile sketch needs hi > lo and positive bins")
	}
	if width := hi - lo; math.IsNaN(width) || math.IsInf(width, 0) {
		panic("stats: quantile sketch needs finite bounds")
	}
	return &QuantileSketch{Lo: lo, Hi: hi, counts: make([]uint64, bins)}
}

// NewAvailabilitySketch returns the standard sketch for availability
// fractions: [0, 1] at DefaultSketchBins resolution.
func NewAvailabilitySketch() *QuantileSketch {
	return NewQuantileSketch(0, 1, DefaultSketchBins)
}

// Resolution returns the bin width — the worst-case value error of
// Quantile and the x-resolution of At.
func (s *QuantileSketch) Resolution() float64 {
	return (s.Hi - s.Lo) / float64(len(s.counts))
}

// bin returns the bin index for x, clamping out-of-range values to the
// edge bins (min/max remain exact, so the clamp only affects shape).
func (s *QuantileSketch) bin(x float64) int {
	i := int((x - s.Lo) / (s.Hi - s.Lo) * float64(len(s.counts)))
	if i < 0 {
		return 0
	}
	if i >= len(s.counts) {
		return len(s.counts) - 1
	}
	return i
}

// Add records one observation.
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.noteExtremes(x, s.n == 0)
	s.counts[s.bin(x)]++
	s.n++
}

// noteExtremes folds x into min/max and their multiplicities; first
// marks the observation that starts them.
func (s *QuantileSketch) noteExtremes(x float64, first bool) {
	if first {
		s.min, s.max, s.minN, s.maxN = x, x, 1, 1
		return
	}
	switch {
	case x < s.min:
		s.min, s.minN = x, 1
	case x == s.min:
		s.minN++
	}
	switch {
	case x > s.max:
		s.max, s.maxN = x, 1
	case x == s.max:
		s.maxN++
	}
}

// Remove is the inverse of Add for an observation x that was added
// before (bit-for-bit the same value): it takes x out of its bin and out
// of n. Bin counts and n are exact after any sequence of Add and Remove.
//
// Min and max stay exact as long as a holder of each remains. Removing
// the last holder of an extreme leaves only a bound on it — the sketch
// does not retain the sample — until a later Add reaches or passes that
// bound. While ExtremesLost reports true the owner, who does retain the
// sample, must call RederiveExtremes over every remaining observation
// before Min, Max, Quantile or MarshalJSON are used. The cost is
// therefore one scan of the sample per departure of a sole extreme
// holder that nothing replaces, and nothing otherwise. Removing the last
// observation empties the sketch and loses nothing.
func (s *QuantileSketch) Remove(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.counts[s.bin(x)]--
	s.n--
	if s.n == 0 {
		s.min, s.max, s.minN, s.maxN = 0, 0, 0, 0
		return
	}
	if x == s.min && s.minN > 0 {
		s.minN--
	}
	if x == s.max && s.maxN > 0 {
		s.maxN--
	}
}

// ExtremesLost reports whether a Remove took the last known holder of
// min or max away and no Add has re-established it since.
func (s *QuantileSketch) ExtremesLost() bool {
	return s.n > 0 && (s.minN == 0 || s.maxN == 0)
}

// RederiveExtremes recomputes min, max and their multiplicities from the
// full remaining sample (see ExtremesLost). visit must call observe once
// per observation the sketch still counts; bin counts and n are not
// touched.
func (s *QuantileSketch) RederiveExtremes(visit func(observe func(x float64))) {
	first := true
	visit(func(x float64) {
		if math.IsNaN(x) {
			return
		}
		s.noteExtremes(x, first)
		first = false
	})
}

// Merge folds other into s. Both sketches must share the same geometry.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil {
		return
	}
	if other.Lo != s.Lo || other.Hi != s.Hi || len(other.counts) != len(s.counts) {
		panic("stats: merging quantile sketches with different geometry")
	}
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max, s.minN, s.maxN = other.min, other.max, other.minN, other.maxN
	} else {
		switch {
		case other.min < s.min:
			s.min, s.minN = other.min, other.minN
		case other.min == s.min:
			s.minN += other.minN
		}
		switch {
		case other.max > s.max:
			s.max, s.maxN = other.max, other.maxN
		case other.max == s.max:
			s.maxN += other.maxN
		}
	}
	for i, c := range other.counts {
		s.counts[i] += c
	}
	s.n += other.n
}

// Clone returns an independent copy.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.counts = make([]uint64, len(s.counts))
	copy(c.counts, s.counts)
	return &c
}

// N returns the number of observations.
func (s *QuantileSketch) N() int { return int(s.n) }

// Min returns the smallest observation (0 when empty).
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns an estimate of the q-quantile: the upper edge of the
// bin containing the ⌈q·n⌉-th order statistic, clamped to [Min, Max].
// NaN when empty.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			v := s.Lo + (float64(i)+1)*s.Resolution()
			if v > s.max {
				v = s.max
			}
			if v < s.min {
				v = s.min
			}
			return v
		}
	}
	return s.max
}

// sketchJSON is the wire form of a QuantileSketch: the full geometry
// plus the non-zero bins as [bin, count] pairs, so a sparse sketch (the
// common case — a few thousand swarms over 4096 bins) stays compact and
// a round trip is lossless. Floats survive encoding/json bitwise (Go
// emits the shortest representation that parses back exactly), which is
// what lets a gateway-merged sketch equal a locally merged one.
type sketchJSON struct {
	Lo     float64     `json:"lo"`
	Hi     float64     `json:"hi"`
	Bins   int         `json:"bins"`
	N      uint64      `json:"n"`
	Min    float64     `json:"min"`
	Max    float64     `json:"max"`
	Counts [][2]uint64 `json:"counts,omitempty"`
}

// MarshalJSON implements json.Marshaler. The scatter-gather read path
// (internal/cluster) ships per-node sketches in this form and merges
// them with Merge; the round trip is exact.
func (s *QuantileSketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{Lo: s.Lo, Hi: s.Hi, Bins: len(s.counts), N: s.n, Min: s.min, Max: s.max}
	for i, c := range s.counts {
		if c != 0 {
			w.Counts = append(w.Counts, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. It validates the geometry
// and bin indices (wire data may come from a foreign node), so a decoded
// sketch is always safe to Merge or query.
func (s *QuantileSketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Bins <= 0 || !(w.Hi > w.Lo) {
		return errors.New("stats: sketch wire form needs hi > lo and positive bins")
	}
	if width := w.Hi - w.Lo; math.IsNaN(width) || math.IsInf(width, 0) {
		return errors.New("stats: sketch wire form needs finite bounds")
	}
	counts := make([]uint64, w.Bins)
	var total uint64
	for _, pair := range w.Counts {
		if pair[0] >= uint64(w.Bins) {
			return fmt.Errorf("stats: sketch wire bin %d out of range (%d bins)", pair[0], w.Bins)
		}
		counts[pair[0]] += pair[1]
		total += pair[1]
	}
	if total != w.N {
		return fmt.Errorf("stats: sketch wire counts sum to %d, header says %d", total, w.N)
	}
	s.Lo, s.Hi, s.counts, s.n = w.Lo, w.Hi, counts, w.N
	if w.N == 0 {
		s.min, s.max, s.minN, s.maxN = 0, 0, 0, 0
	} else {
		// The wire form carries no multiplicities; one holder is certain.
		s.min, s.max, s.minN, s.maxN = w.Min, w.Max, 1, 1
	}
	return nil
}

// At returns the estimated CDF value F(x) = P[X ≤ x]: the fraction of
// observations in bins entirely at or below x.
func (s *QuantileSketch) At(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if x < s.min {
		return 0
	}
	if x >= s.max {
		return 1
	}
	// Bins [0, k) lie entirely ≤ x when their upper edge ≤ x.
	k := int(math.Floor((x - s.Lo) / (s.Hi - s.Lo) * float64(len(s.counts))))
	if k <= 0 {
		return 0
	}
	if k > len(s.counts) {
		k = len(s.counts)
	}
	var cum uint64
	for i := 0; i < k; i++ {
		cum += s.counts[i]
	}
	return float64(cum) / float64(s.n)
}
