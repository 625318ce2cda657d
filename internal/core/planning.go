package core

import (
	"errors"
	"math"
)

// Planning helpers: the inverse problems a publisher actually faces.
// The forward model maps (λ, s, μ, r, u, K) to unavailability and
// download time; these functions solve for the cheapest knob that meets
// an availability or latency target — bundle size, publisher return
// rate, or seeding incentives (lingering).

// ErrUnachievable is returned when no setting within the searched range
// meets the target.
var ErrUnachievable = errors.New("core: target not achievable in the searched range")

// RequiredBundleSize returns the smallest K in [1, maxK] whose bundle
// meets the unavailability target (P ≤ target) under the given scaling.
func (p SwarmParams) RequiredBundleSize(target float64, maxK int, scaling PublisherScaling) (int, error) {
	mustValidate(p)
	if target <= 0 || target > 1 {
		return 0, errors.New("core: unavailability target must be in (0, 1]")
	}
	if maxK < 1 {
		return 0, errors.New("core: maxK must be ≥ 1")
	}
	// Unavailability is monotone non-increasing in K under both
	// scalings, so the first K that qualifies is minimal.
	for k := 1; k <= maxK; k++ {
		if p.Bundle(k, scaling).Unavailability() <= target {
			return k, nil
		}
	}
	return 0, ErrUnachievable
}

// RequiredPublisherRate returns the smallest publisher arrival rate r
// (searched in [lo, hi]) for which the swarm's unavailability drops to
// the target. Unavailability is strictly decreasing in r, so bisection
// applies.
func (p SwarmParams) RequiredPublisherRate(target, lo, hi float64) (float64, error) {
	mustValidate(p)
	if target <= 0 || target >= 1 {
		return 0, errors.New("core: unavailability target must be in (0, 1)")
	}
	if lo <= 0 || hi <= lo {
		return 0, errors.New("core: need 0 < lo < hi")
	}
	at := func(r float64) float64 {
		q := p
		q.R = r
		return q.Unavailability()
	}
	if at(hi) > target {
		return 0, ErrUnachievable
	}
	if at(lo) <= target {
		return lo, nil
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: r spans decades
		if at(mid) <= target {
			hi = mid
		} else {
			lo = mid
		}
		if hi/lo < 1+1e-12 {
			break
		}
	}
	return hi, nil
}

// RequiredLingering returns the smallest mean lingering time 1/γ
// (searched in [0, hi] seconds) that meets the unavailability target.
// Lingering extends peer residence, so unavailability is monotone
// non-increasing in 1/γ.
func (p SwarmParams) RequiredLingering(target, hi float64) (float64, error) {
	mustValidate(p)
	if target <= 0 || target >= 1 {
		return 0, errors.New("core: unavailability target must be in (0, 1)")
	}
	if hi <= 0 {
		return 0, errors.New("core: need hi > 0")
	}
	at := func(lg float64) float64 {
		if lg == 0 {
			return p.Unavailability()
		}
		return Lingering{SwarmParams: p, Gamma: 1 / lg}.Unavailability()
	}
	if at(0) <= target {
		return 0, nil
	}
	if at(hi) > target {
		return 0, ErrUnachievable
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if at(mid) <= target {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < 1e-9*(1+hi) {
			break
		}
	}
	return hi, nil
}

// SeedingCost estimates the publisher-side seeding effort per unit time
// for a swarm: the long-run fraction of time a publisher is online
// (r·u/(1+r·u) for an alternating process) times its upload capacity.
// It lets a publisher compare "more seeding" against "more bundling" in
// common units (upload-capacity-seconds per second).
func (p SwarmParams) SeedingCost(uploadKBps float64) float64 {
	mustValidate(p)
	duty := p.R * p.U / (1 + p.R*p.U)
	return duty * uploadKBps
}

// PlanBundle evaluates the complete bundling plan for a catalog of
// swarms sharing one publisher process: it returns the per-title
// download times if everything is bundled together versus solo, and the
// bundle's unavailability. It is a convenience over BundleOf +
// DownloadTime, re-exported by the root package's EvaluateBundle.
type PlanBundle struct {
	Bundle         SwarmParams
	SoloTimes      []float64
	BundleTime     float64
	Unavailability float64
}

// EvaluateBundle builds the plan for the given swarms and publisher
// process.
func EvaluateBundle(swarms []SwarmParams, r, u float64) PlanBundle {
	b := BundleOf(swarms, r, u)
	plan := PlanBundle{
		Bundle:         b,
		BundleTime:     b.DownloadTime(),
		Unavailability: b.Unavailability(),
	}
	for _, s := range swarms {
		plan.SoloTimes = append(plan.SoloTimes, s.DownloadTime())
	}
	return plan
}
