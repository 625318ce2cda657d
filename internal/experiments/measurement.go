package experiments

import (
	"fmt"

	"swarmavail/internal/dist"
	"swarmavail/internal/measure"
	"swarmavail/internal/plot"
	"swarmavail/internal/trace"
)

func init() {
	register(Driver{
		ID:          "fig1",
		Description: "CDF of seed availability (first month vs whole trace)",
		Run:         Fig1,
	})
	register(Driver{
		ID:          "sec2.3",
		Description: "Extent of bundling and availability-by-bundling statistics",
		Run:         Sec23,
	})
	register(Driver{
		ID:          "fig7",
		Description: "Peer arrival patterns of new vs old swarms",
		Run:         Fig7,
	})
}

// Fig1 regenerates Figure 1: the CDF of per-swarm seed availability over
// the synthetic seven-month measurement study.
func Fig1(scale Scale, seed int64) (*Result, error) {
	n := 5000
	if scale == Full {
		n = 45693 // the paper's swarm count
	}
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(n, seed))
	firstMonth, full := measure.SeedAvailabilityCDFs(traces)

	fmX, fmY := firstMonth.Points()
	flX, flY := full.Points()
	res := &Result{
		ID:          "fig1",
		Description: "CDF of seed availability in synthetic swarms monitored for 7 months",
		Charts: []*plot.Chart{{
			Title:  "Figure 1: CDF of seed availability",
			XLabel: "seed availability (fraction of time)",
			YLabel: "CDF",
			Series: []plot.Series{
				{Name: "first month", X: downsample(fmX, 200), Y: downsample(fmY, 200)},
				{Name: "whole trace", X: downsample(flX, 200), Y: downsample(flY, 200)},
			},
		}},
	}
	h := measure.Headlines(traces)
	res.Notef("swarms monitored: %d", h.Swarms)
	res.Notef("fully seeded through first month: %.1f%% (paper: <35%%)",
		Headline{"pct_fully_seeded_month1", 100 * h.FullyAvailableFirstMonth})
	res.Notef("availability ≤20%% over whole trace: %.1f%% (paper: ≈80%%)",
		Headline{"pct_mostly_unavailable", 100 * h.MostlyUnavailableOverall})
	return res, nil
}

// Sec23 regenerates the §2.3 statistics: bundling extent per category
// and the availability/demand comparison for book swarms.
func Sec23(scale Scale, seed int64) (*Result, error) {
	n := 40000
	if scale == Full {
		n = 1087933 // the paper's snapshot size
	}
	snaps := trace.GenerateSnapshot(trace.SnapshotConfig{Seed: seed, NumSwarms: n})
	ext := measure.ExtentOfBundling(snaps)

	res := &Result{
		ID:          "sec2.3",
		Description: "Extent of bundling (music, TV, books) and availability by bundling",
	}
	tb := Table{
		Name:   "Extent of bundling (§2.3.1)",
		Header: []string{"category", "swarms", "bundles", "bundle %", "collections"},
	}
	for _, cat := range []trace.Category{trace.Music, trace.TV, trace.Books} {
		e := ext[cat]
		tb.Rows = append(tb.Rows, []string{
			cat.String(),
			fmt.Sprintf("%d", e.Swarms),
			fmt.Sprintf("%d", e.Bundles),
			fmt.Sprintf("%.1f%%", 100*e.BundleFraction()),
			fmt.Sprintf("%d", e.Collections),
		})
	}
	res.Tables = append(res.Tables, tb)

	cmp := measure.CompareAvailability(snaps, trace.Books)
	res.Tables = append(res.Tables, Table{
		Name:   "Availability by bundling, books (§2.3.2)",
		Header: []string{"population", "N", "seedless", "mean downloads"},
		Rows: [][]string{
			{"all book swarms", fmt.Sprintf("%d", cmp.NAll),
				fmt.Sprintf("%.1f%%", 100*cmp.SeedlessAll),
				fmt.Sprintf("%.0f", cmp.MeanDownloadsAll)},
			{"bundled book swarms", fmt.Sprintf("%d", cmp.NBundles),
				fmt.Sprintf("%.1f%%", 100*cmp.SeedlessBundles),
				fmt.Sprintf("%.0f", cmp.MeanDownloadsBundles)},
		},
	})
	res.Notef("books seedless: all %.1f%% vs bundles %.1f%% (paper: 62%% vs 36%%)",
		Headline{"pct_seedless_all", 100 * cmp.SeedlessAll}, Headline{"pct_seedless_bundles", 100 * cmp.SeedlessBundles})
	res.Notef("books mean downloads: all %.0f vs bundles %.0f (paper: 2578 vs 4216)",
		Headline{"mean_downloads_all", cmp.MeanDownloadsAll}, Headline{"mean_downloads_bundles", cmp.MeanDownloadsBundles})

	// The Friends-style case study (§2.3.2): the largest TV franchise's
	// availability-by-bundling split.
	if cs, ok := measure.LargestCaseStudy(snaps); ok {
		res.Tables = append(res.Tables, Table{
			Name:   "Largest TV franchise (the paper's 'Friends' analysis)",
			Header: []string{"population", "swarms", "bundles"},
			Rows: [][]string{
				{"available", fmt.Sprintf("%d", cs.Available), fmt.Sprintf("%d", cs.AvailableBundles)},
				{"unavailable", fmt.Sprintf("%d", cs.Unavailable), fmt.Sprintf("%d", cs.UnavailableBundles)},
			},
		})
		res.Notef("largest franchise: %d swarms; bundle share %.0f%% among available vs %.0f%% among unavailable "+
			"(paper's Friends: 52 swarms, 21/23 vs 7/29)",
			cs.Swarms, 100*cs.BundleShareAvailable(), 100*cs.BundleShareUnavailable())
	}
	res.Notef("TV bundling/availability odds ratio: %.1f (strong positive correlation)",
		Headline{"tv_odds_ratio", measure.BundlingAvailabilityOddsRatio(snaps, trace.TV)})
	return res, nil
}

// Fig7 regenerates Figure 7: typical peer arrival patterns of a young
// swarm (flash crowd) and an old swarm (steady rate).
func Fig7(scale Scale, seed int64) (*Result, error) {
	horizon := 3.0 * 24 * 3600 // three days
	if scale == Full {
		horizon = 14 * 24 * 3600
	}
	r := dist.NewRand(seed)
	young := trace.NewSwarmArrivals(80, 10, 0.8)
	old := trace.OldSwarmArrivals(2.5)
	bucket := 3600.0

	yc, ycv := trace.BinnedArrivals(young, r, horizon, bucket)
	oc, ocv := trace.BinnedArrivals(old, r, horizon, bucket)

	toSeries := func(name string, counts []int) plot.Series {
		s := plot.Series{Name: name}
		for i, c := range counts {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, float64(c))
		}
		return s
	}
	res := &Result{
		ID:          "fig7",
		Description: "Peer arrivals per hour: new (flash crowd) vs old (steady) swarm",
		Charts: []*plot.Chart{{
			Title:  "Figure 7: typical peer arrival patterns",
			XLabel: "hours since start",
			YLabel: "arrivals per hour",
			Series: []plot.Series{
				toSeries(young.Label, yc),
				toSeries(old.Label, oc),
			},
		}},
	}
	res.Notef("arrival-count CV: new swarm %.2f vs old swarm %.2f (new ≫ old)",
		Headline{"cv_new_swarm", ycv}, Headline{"cv_old_swarm", ocv})
	return res, nil
}

// downsample keeps at most n evenly spaced points of a series (the CDFs
// have one point per swarm, far more than a chart needs).
func downsample(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}
