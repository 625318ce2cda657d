package experiments

import (
	"fmt"
	"math"

	"swarmavail/internal/core"
	"swarmavail/internal/fluid"
	"swarmavail/internal/plot"
)

func init() {
	register(Driver{
		ID:          "fig3",
		Description: "Model: expected download time vs bundle size for 1/R ∈ [100,1100]",
		Run:         Fig3,
	})
	register(Driver{
		ID:          "table-bm",
		Description: "Model: residual busy periods B(m) for the Figure 4 parameters",
		Run:         TableBm,
	})
	register(Driver{
		ID:          "scaling-laws",
		Description: "Theorems 3.1/3.2 and Lemma 3.1: e^{Θ(K²)} scaling checks",
		Run:         ScalingLaws,
	})
	register(Driver{
		ID:          "fluid-baseline",
		Description: "Qiu–Srikant fluid baseline vs the availability model under bundling",
		Run:         FluidBaseline,
	})
}

// Fig3Params are the calibrated parameters reproducing Figure 3's shape
// and optima exactly: the legend of the published figure is unreadable
// in the source scan, so λ, s/μ and u were fitted such that the
// published optima hold (K*=1 for 1/R ≤ 400, K*=3 for 1/R ∈ [500,1100],
// with the increase–decrease–increase shape; see DESIGN.md).
var Fig3Params = core.SwarmParams{Lambda: 0.004, Size: 140, Mu: 1, U: 100}

// Fig3 regenerates Figure 3 from eq. (9) + eq. (11).
func Fig3(_ Scale, _ int64) (*Result, error) {
	const maxK = 10
	res := &Result{
		ID:          "fig3",
		Description: "E[T] vs bundle size K, one curve per publisher interarrival 1/R",
	}
	chart := &plot.Chart{
		Title:  "Figure 3: bundles may reduce download time",
		XLabel: "bundle size K",
		YLabel: "expected download time (s)",
	}
	optima := Table{
		Name:   "Optimal bundle size per publisher unavailability",
		Header: []string{"1/R (s)", "optimal K", "E[T](1)", "E[T](K*)"},
	}
	for invR := 100.0; invR <= 1100; invR += 100 {
		p := Fig3Params
		p.R = 1 / invR
		best, curve := p.OptimalBundleSize(maxK, core.ConstantPublisher)
		s := plot.Series{Name: fmt.Sprintf("1/R=%.0f", invR)}
		for k := 1; k <= maxK; k++ {
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, curve[k-1])
		}
		chart.Series = append(chart.Series, s)
		optima.Rows = append(optima.Rows, []string{
			fmt.Sprintf("%.0f", invR),
			fmt.Sprintf("%d", best),
			fmt.Sprintf("%.0f", curve[0]),
			fmt.Sprintf("%.0f", curve[best-1]),
		})
		res.Notef("1/R=%.0f: optimal K=%.0f", invR, Headline{fmt.Sprintf("optimal_K_at_%.0f", invR), float64(best)})
	}
	res.Charts = append(res.Charts, chart)
	res.Tables = append(res.Tables, optima)
	return res, nil
}

// Fig4ModelParams are the §4.2 parameters (sizes in KB, rates in KB/s).
func Fig4ModelParams() core.SwarmParams {
	return core.SwarmParams{Lambda: 1.0 / 150, Size: 4000, Mu: 33, R: 1.0 / 900, U: 300}
}

// TableBm regenerates the §4.2 table of steady-state residual busy
// periods B(m) for m=9 and K=1..8 (the paper reports
// (0, 0, 47, 569, 2816, 8835, 256446, 75276); the last two published
// values are non-monotone, which the paper's own self-sustainability
// reading suggests is a typo — our model yields a monotone explosion).
func TableBm(_ Scale, _ int64) (*Result, error) {
	base := Fig4ModelParams()
	res := &Result{
		ID:          "table-bm",
		Description: "Residual busy periods B̄(9) vs bundle size (s = 4 MB, μ = 33 KBps, λ = 1/150)",
	}
	tb := Table{
		Name:   "B̄(m=9) per bundle size",
		Header: []string{"K", "rho (λ·s/μ)", "B̄(9) seconds", "self-sustaining ≥1500 s"},
	}
	for k := 1; k <= 8; k++ {
		b := base.Bundle(k, core.ScaledPublisher)
		bm := b.SteadyStateResidualBusyPeriod(9)
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", b.Rho()),
			formatSeconds(bm),
			fmt.Sprintf("%v", bm >= 1500),
		})
		res.Notef("K=%d: B̄(9) = %s", k, formatSeconds(bm))
	}
	res.Tables = append(res.Tables, tb)
	return res, nil
}

func formatSeconds(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// ScalingLaws verifies the asymptotic statements numerically: Lemma 3.1
// (log E[B] = Θ(K²)), Theorem 3.1 (−log P = Θ(K²)) and the Theorem 3.2
// bracket.
func ScalingLaws(_ Scale, _ int64) (*Result, error) {
	p := core.SwarmParams{Lambda: 0.01, Size: 15, Mu: 1, R: 0.0005, U: 100}
	res := &Result{
		ID:          "scaling-laws",
		Description: "Numerical verification of the e^{Θ(K²)} bundling laws",
	}
	chart := &plot.Chart{
		Title:  "−log P(K) grows as Θ(K²) (constant publisher process)",
		XLabel: "K²",
		YLabel: "−log unavailability",
	}
	s := plot.Series{Name: "−log P"}
	var exps []float64
	for _, k := range []int{4, 8, 12, 16, 24, 32} {
		e := p.AvailabilityGainExponent(k, core.ConstantPublisher)
		exps = append(exps, e)
		s.X = append(s.X, float64(k*k))
		s.Y = append(s.Y, e)
	}
	chart.Series = append(chart.Series, s)
	res.Charts = append(res.Charts, chart)

	// Quadratic-coefficient fit via doubling differences.
	d1 := exps[3] - exps[1] // e(16)−e(8)
	d2 := exps[5] - exps[3] // e(32)−e(16)
	res.Notef("doubling-difference ratio (→4 for Θ(K²)): %.2f", Headline{"doubling_ratio", d2 / d1})

	single := p.DownloadTime()
	for _, k := range []int{2, 4, 8} {
		bundle := p.Bundle(k, core.ScaledPublisher).DownloadTime()
		res.Notef("Theorem 3.2 bracket at K=%d: E[T_B]/E[T] = %.3f (≤ K = %d)",
			k, bundle/single, k)
	}
	return res, nil
}

// FluidBaseline compares the naive fluid-model bundling prediction
// (monotone increase) against the availability model (interior optimum)
// under the Figure 3 parameters with 1/R = 900 s.
func FluidBaseline(_ Scale, _ int64) (*Result, error) {
	const maxK = 10
	p := Fig3Params
	p.R = 1.0 / 900
	_, availCurve := p.OptimalBundleSize(maxK, core.ConstantPublisher)

	// Fluid equivalent: service s/μ = 140 s for a unit-size file means
	// μ_fluid = 1/140 files/s; selfish peers (γ→∞), generous download.
	fl := fluid.Params{Lambda: p.Lambda, Mu: 1.0 / 140, C: 1.0 / 10, Gamma: math.Inf(1), Eta: 1}
	fluidCurve := fl.BundleDownloadTimeCurve(maxK)

	res := &Result{
		ID:          "fluid-baseline",
		Description: "Naive fluid bundling prediction vs the availability model",
	}
	chart := &plot.Chart{
		Title:  "Fluid baseline is monotone; availability model has an interior optimum",
		XLabel: "bundle size K",
		YLabel: "expected download time (s)",
	}
	av := plot.Series{Name: "availability model (1/R=900)"}
	fv := plot.Series{Name: "fluid baseline"}
	for k := 1; k <= maxK; k++ {
		av.X = append(av.X, float64(k))
		av.Y = append(av.Y, availCurve[k-1])
		fv.X = append(fv.X, float64(k))
		fv.Y = append(fv.Y, fluidCurve[k-1])
	}
	chart.Series = append(chart.Series, av, fv)
	res.Charts = append(res.Charts, chart)

	bestAvail := 1
	for k := 2; k <= maxK; k++ {
		if availCurve[k-1] < availCurve[bestAvail-1] {
			bestAvail = k
		}
	}
	res.Notef("availability model optimum: K=%.0f", Headline{"avail_model_optimum", float64(bestAvail)})
	monotone := true
	for k := 1; k < maxK; k++ {
		if fluidCurve[k] < fluidCurve[k-1] {
			monotone = false
		}
	}
	res.Notef("fluid baseline monotone increasing: %v (never predicts a bundling win)", monotone)
	return res, nil
}
