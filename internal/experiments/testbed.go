package experiments

import (
	"fmt"
	"math"

	"swarmavail/internal/core"
	"swarmavail/internal/dist"
	"swarmavail/internal/plot"
	"swarmavail/internal/stats"
	"swarmavail/internal/swarm"
)

func init() {
	register(Driver{
		ID:          "fig2",
		Description: "Illustration: busy/idle periods of a swarm with an intermittent publisher",
		Run:         Fig2,
	})
	register(Driver{
		ID:          "fig4",
		Description: "Seedless swarms: completed downloads over time per bundle size",
		Run:         Fig4,
	})
	register(Driver{
		ID:          "fig5",
		Description: "Peer arrival/departure timelines for K=2,3,4 with an intermittent publisher",
		Run:         Fig5,
	})
	register(Driver{
		ID:          "fig6a",
		Description: "Mean download time vs bundle size (homogeneous capacities) + eq. 16 model",
		Run:         Fig6a,
	})
	register(Driver{
		ID:          "fig6b",
		Description: "Mean download time vs bundle size with BitTyrant upload capacities",
		Run:         Fig6b,
	})
	register(Driver{
		ID:          "fig6c",
		Description: "Heterogeneous popularity: four solo files vs their bundle",
		Run:         Fig6c,
	})
}

// Testbed describes a controlled experiment once. Swarm and Model are
// its two realisations — the block-level simulator and the §3 model —
// so the legs a figure compares cannot be handed different numbers.
type Testbed struct {
	Lambda     float64 // peer arrival rate per file (1/s)
	SizeKB     float64 // file size
	PeerUpKBps float64 // peer upload capacity: the model's μ
	PubUpKBps  float64 // publisher upload capacity
	OnSeconds  float64 // mean publisher on time: the model's u
	OffSeconds float64 // mean publisher off time: the model's 1/r
	LagSeconds float64 // client shutdown latency (see swarm.Config.DepartureLagSeconds)
	Threshold  int     // coverage threshold m of eq. (14)/(16)
	// Seedless makes the simulated publisher leave for good at the first
	// completed download instead of alternating on and off; the model
	// keeps its on/off reading (OnSeconds, OffSeconds).
	Seedless bool
}

// Sec42 is the §4.2 seedless testbed: λ = 1/150 per file, 4 MB files,
// 33 KBps peers, a 50 KBps publisher that leaves at the first completion;
// the model reads it as on 300 s / off 900 s, m = 9.
var Sec42 = Testbed{
	Lambda: 1.0 / 150, SizeKB: 4000, PeerUpKBps: 33, PubUpKBps: 50,
	OnSeconds: 300, OffSeconds: 900, Threshold: 9, Seedless: true,
}

// Sec43 is the §4.3 testbed: λ = 1/60 per file, 4 MB files, 50 KBps
// peers, a 100 KBps publisher alternating on 300 s / off 900 s, m = 9.
var Sec43 = Testbed{
	Lambda: 1.0 / 60, SizeKB: 4000, PeerUpKBps: 50, PubUpKBps: 100,
	OnSeconds: 300, OffSeconds: 900, LagSeconds: 15, Threshold: 9,
}

// Files is a bundle of k of the testbed's files.
func (t Testbed) Files(k int) []swarm.FileSpec {
	files := make([]swarm.FileSpec, k)
	for i := range files {
		files[i] = swarm.FileSpec{SizeKB: t.SizeKB, Lambda: t.Lambda}
	}
	return files
}

// Swarm is the simulator's configuration of the testbed for one torrent
// carrying files.
func (t Testbed) Swarm(files []swarm.FileSpec, seed int64, horizon float64) swarm.Config {
	mode := swarm.PublisherOnOff
	if t.Seedless {
		mode = swarm.PublisherUntilFirstCompletion
	}
	return swarm.Config{
		Seed:                seed,
		Files:               files,
		PeerUpload:          dist.Deterministic{Value: t.PeerUpKBps},
		PublisherUploadKBps: t.PubUpKBps,
		PublisherMode:       mode,
		PublisherOn:         dist.NewExponentialFromMean(t.OnSeconds),
		PublisherOff:        dist.NewExponentialFromMean(t.OffSeconds),
		DepartureLagSeconds: t.LagSeconds,
		Horizon:             horizon,
	}
}

// Model is the §3 model's view of a swarm of the testbed with aggregate
// arrival rate lambda and content size sizeKB; its threshold quantities
// are evaluated at t.Threshold.
func (t Testbed) Model(lambda, sizeKB float64) core.SwarmParams {
	return core.SwarmParams{Lambda: lambda, Size: sizeKB, Mu: t.PeerUpKBps, R: 1 / t.OffSeconds, U: t.OnSeconds}
}

// Fig2 produces the busy/idle-period illustration from a real simulated
// sample path: peer and publisher spans plus the derived availability
// intervals.
func Fig2(_ Scale, seed int64) (*Result, error) {
	cfg := Sec43.Swarm(Sec43.Files(2), seed, 3000)
	res0, err := swarm.Run(cfg)
	if err != nil {
		return nil, err
	}
	tl := &plot.Timeline{
		Title:   "Figure 2: busy and idle periods (thick = publisher, thin = peers)",
		Horizon: res0.Horizon,
	}
	for _, s := range res0.PublisherSessions {
		tl.Spans = append(tl.Spans, plot.Span{
			Label: "publisher", Start: s.Start, End: s.End, Thick: true,
		})
	}
	for _, p := range res0.Records {
		tl.Spans = append(tl.Spans, plot.Span{
			Label: fmt.Sprintf("peer%02d", p.ID),
			Start: p.Arrive,
			End:   p.Depart,
			Open:  math.IsInf(p.Depart, 1),
		})
	}
	plot.SortSpansByStart(tl.Spans)
	avail := &plot.Timeline{Title: "content availability (busy periods)", Horizon: res0.Horizon}
	for i, iv := range res0.AvailableIntervals {
		avail.Spans = append(avail.Spans, plot.Span{
			Label: fmt.Sprintf("busy%02d", i+1), Start: iv.Start, End: iv.End, Thick: true,
		})
	}
	out := &Result{
		ID:          "fig2",
		Description: "Sample path: publisher sessions, peer sojourns, busy periods",
		Timelines:   []*plot.Timeline{tl, avail},
	}
	out.Notef("availability fraction on this path: %.2f", res0.AvailabilityFraction())
	out.Notef("busy periods observed: %.0f", Headline{"busy_periods", float64(len(res0.AvailableIntervals))})
	return out, nil
}

// Fig4 regenerates the seedless-sustainability experiment (§4.2): the
// publisher leaves after the first completed download; completions over
// time are plotted per bundle size.
func Fig4(scale Scale, seed int64) (*Result, error) {
	ks := []int{1, 2, 4, 6, 8, 10}
	horizon := 1500.0
	runs := 1
	if scale == Full {
		runs = 5
		horizon = 1500
	}
	res := &Result{
		ID:          "fig4",
		Description: "Completed downloads over time in publisher-less swarms",
	}
	chart := &plot.Chart{
		Title:  "Figure 4: availability of seedless swarms",
		XLabel: "time (s)",
		YLabel: "peers served (cumulative)",
	}
	for _, k := range ks {
		// Average the cumulative-completion staircase over runs.
		bucket := 100.0
		bins := int(horizon/bucket) + 1
		acc := make([]float64, bins)
		for run := 0; run < runs; run++ {
			r, err := swarm.Run(Sec42.Swarm(Sec42.Files(k), seed+int64(run*1000+k), horizon))
			if err != nil {
				return nil, err
			}
			for _, t := range r.CompletionTimes() {
				for b := int(t / bucket); b < bins; b++ {
					acc[b]++
				}
			}
		}
		s := plot.Series{Name: fmt.Sprintf("K=%d", k)}
		for b := 0; b < bins; b++ {
			s.X = append(s.X, float64(b)*bucket)
			s.Y = append(s.Y, acc[b]/float64(runs))
		}
		chart.Series = append(chart.Series, s)
		res.Notef("K=%d: %.1f peers served by t=%.0f s", k,
			Headline{fmt.Sprintf("peers_served_K%d", k), acc[bins-1] / float64(runs)}, horizon)
	}
	res.Charts = append(res.Charts, chart)

	// Attach the model's B̄(9) table (§4.2 quotes it against this figure).
	bm, err := TableBm(scale, seed)
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, bm.Tables...)
	return res, nil
}

// Fig5 regenerates the arrival/departure timelines for K = 2, 3, 4.
func Fig5(scale Scale, seed int64) (*Result, error) {
	horizon := 1200.0
	res := &Result{
		ID:          "fig5",
		Description: "Peer sojourn timelines under an intermittent publisher",
	}
	for _, k := range []int{2, 3, 4} {
		r, err := swarm.Run(Sec43.Swarm(Sec43.Files(k), seed+int64(k), horizon))
		if err != nil {
			return nil, err
		}
		res.Timelines = append(res.Timelines, PeerTimeline(
			fmt.Sprintf("Figure 5: K=%d (| span = peer sojourn, = publisher online)", k), r))

		// Flash-departure statistic: the largest number of completions
		// inside any 30-second window (blocked peers released together).
		burst := maxCompletionsInWindow(r.CompletionTimes(), 30)
		res.Notef("K=%d: completed %d, max completions in a 30 s window: %d",
			k, r.CompletedCount(), burst)
	}
	return res, nil
}

// PeerTimeline draws a run the way Figure 5 does: a thick span per
// publisher session and a span per admitted peer from arrival to
// departure (open if it is still online at the horizon), by start time.
func PeerTimeline(title string, r *swarm.Result) *plot.Timeline {
	tl := &plot.Timeline{Title: title, Horizon: r.Horizon}
	for _, s := range r.PublisherSessions {
		tl.Spans = append(tl.Spans, plot.Span{Label: "pub", Start: s.Start, End: s.End, Thick: true})
	}
	for _, p := range r.Records {
		tl.Spans = append(tl.Spans, plot.Span{
			Label: fmt.Sprintf("p%03d", p.ID),
			Start: p.Arrive,
			End:   p.Depart,
			Open:  math.IsInf(p.Depart, 1),
		})
	}
	plot.SortSpansByStart(tl.Spans)
	return tl
}

func maxCompletionsInWindow(times []float64, window float64) int {
	best := 0
	j := 0
	for i := range times {
		for times[i]-times[j] > window {
			j++
		}
		if i-j+1 > best {
			best = i - j + 1
		}
	}
	return best
}

// fig6SweepCapped runs the §4.3 download-time-vs-K sweep and returns the
// download times per K. download is a per-peer download cap (nil =
// unconstrained) — needed for §4.3.2, where heterogeneous high-capacity
// uploaders would otherwise drain blocked backlogs at rates no 2008
// access link could receive.
func fig6SweepCapped(ks []int, runs int, seed int64, upload, download dist.Dist) ([]stats.Accumulator, error) {
	accs := make([]stats.Accumulator, len(ks))
	for i, k := range ks {
		for run := 0; run < runs; run++ {
			// Arrivals stop at 1200 s (the paper's run length) but the
			// simulation continues so every admitted peer's download
			// time — including stragglers blocked on the publisher — is
			// measured without censoring bias.
			cfg := Sec43.Swarm(Sec43.Files(k), seed+int64(run*100+k), 15000)
			cfg.ArrivalCutoff = 1200
			cfg.PeerUpload = upload
			cfg.PeerDownload = download
			r, err := swarm.Run(cfg)
			if err != nil {
				return nil, err
			}
			accs[i].AddAll(r.DownloadTimes())
		}
	}
	return accs, nil
}

// Fig6a regenerates Figure 6(a) (homogeneous 50 KBps peers) and overlays
// the eq. (16) model prediction (§4.3.1).
func Fig6a(scale Scale, seed int64) (*Result, error) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	runs := 3
	if scale == Full {
		runs = 10 // the paper's 10 runs of 1200 s
	}
	accs, err := fig6SweepCapped(ks, runs, seed, dist.Deterministic{Value: Sec43.PeerUpKBps}, nil)
	if err != nil {
		return nil, err
	}

	// Model overlay: s/μ = 80 s, λ = 1/60, 1/R = 900 s, u = 300 s, m = 9.
	model := Sec43.Model(Sec43.Lambda, Sec43.SizeKB)
	bestModel, modelCurve := model.OptimalBundleSizeThreshold(len(ks), Sec43.Threshold, core.ConstantPublisher)

	res := &Result{
		ID:          "fig6a",
		Description: "Mean download time vs K: simulation testbed and eq. (16) model",
	}
	chart := &plot.Chart{
		Title:  "Figure 6(a): download time vs bundle size (exp. on/off publisher)",
		XLabel: "bundle size K",
		YLabel: "mean download time (s)",
	}
	sim := plot.Series{Name: "testbed (simulated clients)"}
	mod := plot.Series{Name: "model eq. (16)"}
	tb := Table{
		Name:   "Download time vs K",
		Header: []string{"K", "testbed mean (s)", "±95% CI", "model (s)"},
	}
	bestSim := 1
	for i, k := range ks {
		sim.X = append(sim.X, float64(k))
		sim.Y = append(sim.Y, accs[i].Mean())
		mod.X = append(mod.X, float64(k))
		mod.Y = append(mod.Y, modelCurve[i])
		if accs[i].Mean() < accs[bestSim-1].Mean() {
			bestSim = k
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", accs[i].Mean()),
			fmt.Sprintf("%.0f", accs[i].CI95()),
			fmt.Sprintf("%.0f", modelCurve[i]),
		})
	}
	chart.Series = append(chart.Series, sim, mod)
	res.Charts = append(res.Charts, chart)
	res.Tables = append(res.Tables, tb)
	res.Notef("testbed optimal K=%.0f (paper experiment: K=4)", Headline{"testbed_optimal_K", float64(bestSim)})
	res.Notef("model optimal K=%.0f (paper model: K=5)", Headline{"model_optimal_K", float64(bestModel)})
	return res, nil
}

// Fig6b repeats the sweep with the heterogeneous BitTyrant capacity
// distribution; the optimum shifts right (paper: K=5).
func Fig6b(scale Scale, seed int64) (*Result, error) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	runs := 3
	if scale == Full {
		runs = 10
	}
	accs, err := fig6SweepCapped(ks, runs, seed,
		dist.BitTyrantUploadCapacities(), dist.Deterministic{Value: 1250})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:          "fig6b",
		Description: "Download time vs K under heterogeneous (BitTyrant) upload capacities",
	}
	chart := &plot.Chart{
		Title:  "Figure 6(b): heterogeneous upload capacities",
		XLabel: "bundle size K",
		YLabel: "mean download time (s)",
	}
	s := plot.Series{Name: "testbed (BitTyrant capacities)"}
	best := 1
	for i, k := range ks {
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, accs[i].Mean())
		if accs[i].Mean() < accs[best-1].Mean() {
			best = k
		}
	}
	chart.Series = append(chart.Series, s)
	res.Charts = append(res.Charts, chart)
	res.Notef("optimal K=%.0f with heterogeneous capacities (paper: K=5, ≥ homogeneous optimum)",
		Headline{"optimal_K", float64(best)})
	return res, nil
}

// Fig6c regenerates the heterogeneous-popularity experiment (§4.3.3):
// λᵢ = 1/(8i) for i = 1..4 run solo, then bundled with λ = Σλᵢ = 1/3.84.
func Fig6c(scale Scale, seed int64) (*Result, error) {
	runs := 3
	horizon := 2400.0
	if scale == Full {
		runs = 10
		horizon = 4800
	}
	lambdas := []float64{1.0 / 8, 1.0 / 16, 1.0 / 24, 1.0 / 32}

	runExperiment := func(files []swarm.FileSpec, tag int) ([]float64, error) {
		var all []float64
		for run := 0; run < runs; run++ {
			cfg := Sec43.Swarm(files, seed+int64(tag*1000+run), horizon+12000)
			cfg.ArrivalCutoff = horizon
			r, err := swarm.Run(cfg)
			if err != nil {
				return nil, err
			}
			all = append(all, r.DownloadTimes()...)
		}
		return all, nil
	}

	res := &Result{
		ID:          "fig6c",
		Description: "Solo downloads of files with λᵢ = 1/(8i) vs their 4-file bundle",
	}
	box := &plot.Boxplot{
		Title:  "Figure 6(c): heterogeneous demand",
		YLabel: "download time (s)",
	}
	var soloMeans []float64
	for i, l := range lambdas {
		times, err := runExperiment([]swarm.FileSpec{{SizeKB: Sec43.SizeKB, Lambda: l}}, i+1)
		if err != nil {
			return nil, err
		}
		fn, err := stats.Summarize(times)
		if err != nil {
			return nil, fmt.Errorf("experiment %d produced no completions", i+1)
		}
		soloMeans = append(soloMeans, fn.Mean)
		box.Groups = append(box.Groups, plot.BoxGroup{
			Label: fmt.Sprintf("file%d solo", i+1),
			P5:    fn.P5, Q1: fn.Q1, Median: fn.Median, Q3: fn.Q3, P95: fn.P95,
			Mean: fn.Mean, N: fn.N,
		})
	}
	bundleFiles := make([]swarm.FileSpec, len(lambdas))
	for i, l := range lambdas {
		bundleFiles[i] = swarm.FileSpec{SizeKB: Sec43.SizeKB, Lambda: l}
	}
	bundleTimes, err := runExperiment(bundleFiles, 5)
	if err != nil {
		return nil, err
	}
	fn, err := stats.Summarize(bundleTimes)
	if err != nil {
		return nil, fmt.Errorf("bundle experiment produced no completions")
	}
	box.Groups = append(box.Groups, plot.BoxGroup{
		Label: "bundle (exp 5)",
		P5:    fn.P5, Q1: fn.Q1, Median: fn.Median, Q3: fn.Q3, P95: fn.P95,
		Mean: fn.Mean, N: fn.N,
	})
	res.Boxplots = append(res.Boxplots, box)

	for i, m := range soloMeans {
		res.Notef("file %d solo mean: %.0f s", i+1, m)
	}
	// The model's view of the same five experiments (eq. 16, m=9): solo
	// download time rises as popularity falls, and the bundle sits above
	// file 1 but below files 2–4 — the ordering the paper reports. The
	// testbed reproduces the bundle-vs-tail comparisons; the solo-file
	// ordering is washed out by whole-piece coverage noise (see
	// EXPERIMENTS.md).
	for i, l := range lambdas {
		solo := Sec43.Model(l, Sec43.SizeKB).SinglePublisherDownloadTime(Sec43.Threshold)
		res.Notef("model: file %d solo E[T] = %.0f s", i+1, Headline{fmt.Sprintf("model_solo_s_file%d", i+1), solo})
	}
	bundleModel := Sec43.Model(1.0/3.84, 4*Sec43.SizeKB)
	res.Notef("model: bundle E[T] = %.0f s", bundleModel.SinglePublisherDownloadTime(Sec43.Threshold))
	res.Notef("bundle mean: %.0f s (paper: 405 s — above file 1's solo 329 s, below files 2–4)",
		Headline{"bundle_mean_s", fn.Mean})
	worse := 0
	for _, m := range soloMeans[1:] {
		if fn.Mean < m {
			worse++
		}
	}
	res.Notef("bundle beats %d of 3 unpopular solo files", worse)
	return res, nil
}
