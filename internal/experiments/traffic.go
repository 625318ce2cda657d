package experiments

import (
	"fmt"

	"swarmavail/internal/plot"
	"swarmavail/internal/stats"
	"swarmavail/internal/swarm"
)

func init() {
	register(Driver{
		ID:          "ablation-traffic",
		Description: "Traffic cost of bundling: delivered volume per wanted file vs K",
		Run:         AblationTraffic,
	})
	register(Driver{
		ID:          "ablation-impatience",
		Description: "Impatient peers: abandonment vs bundle size under an intermittent publisher",
		Run:         AblationImpatience,
	})
	register(Driver{
		ID:          "ablation-slots",
		Description: "Unchoke-slot count: download time vs MaxUploads in the testbed",
		Run:         AblationSlots,
	})
}

// AblationSlots sweeps the per-node concurrent-upload limit (the unchoke
// slot count): too few slots serialise the publisher's injections after
// idle periods; many slots split capacity so thin that piece transfers
// crawl. The default of 4 (the mainline's unchoke count) sits in the
// flat middle.
func AblationSlots(scale Scale, seed int64) (*Result, error) {
	runs := 2
	if scale == Full {
		runs = 6
	}
	res := &Result{
		ID:          "ablation-slots",
		Description: "Mean download time at K=4 vs MaxUploads",
	}
	tb := Table{
		Name:   "Unchoke slots (K=4, intermittent publisher)",
		Header: []string{"MaxUploads", "mean download (s)", "completed"},
	}
	for _, slots := range []int{1, 2, 4, 8, 16} {
		var acc stats.Accumulator
		completed := 0
		for run := 0; run < runs; run++ {
			cfg := Sec43.Swarm(Sec43.Files(4), seed+int64(run*10+slots), 15000)
			cfg.ArrivalCutoff = 1200
			cfg.MaxUploads = slots
			r, err := swarm.Run(cfg)
			if err != nil {
				return nil, err
			}
			acc.AddAll(r.DownloadTimes())
			completed += r.CompletedCount()
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", slots),
			fmt.Sprintf("%.0f", acc.Mean()),
			fmt.Sprintf("%d", completed),
		})
		res.Notef("MaxUploads=%d: mean %.0f s over %d completions", slots, acc.Mean(), completed)
	}
	res.Tables = append(res.Tables, tb)
	return res, nil
}

// AblationTraffic measures the paper's future-work concern ("bundling
// may increase the traffic in the network"): total delivered volume per
// file actually wanted, as a function of K, in the §4.3 testbed.
func AblationTraffic(scale Scale, seed int64) (*Result, error) {
	runs := 2
	if scale == Full {
		runs = 6
	}
	res := &Result{
		ID:          "ablation-traffic",
		Description: "Bundling's bandwidth multiplier in the testbed",
	}
	chart := &plot.Chart{
		Title:  "Traffic overhead vs bundle size (pure bundling moves K× the bytes)",
		XLabel: "bundle size K",
		YLabel: "delivered KB per wanted KB",
	}
	s := plot.Series{Name: "testbed"}
	tb := Table{
		Name:   "Traffic per bundle size",
		Header: []string{"K", "delivered (MB)", "wasted (MB)", "overhead ×"},
	}
	for _, k := range []int{1, 2, 4, 6, 8} {
		var delivered, wasted, overhead float64
		for run := 0; run < runs; run++ {
			cfg := Sec43.Swarm(Sec43.Files(k), seed+int64(run*10+k), 15000)
			cfg.ArrivalCutoff = 1200
			r, err := swarm.Run(cfg)
			if err != nil {
				return nil, err
			}
			delivered += r.DeliveredKB
			wasted += r.WastedKB
			overhead += r.TrafficOverhead()
		}
		overhead /= float64(runs)
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, overhead)
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", delivered/1000/float64(runs)),
			fmt.Sprintf("%.1f", wasted/1000/float64(runs)),
			fmt.Sprintf("%.2f", overhead),
		})
		res.Notef("K=%d: overhead %.2f× (pure bundling ceiling: %d×)", k,
			Headline{fmt.Sprintf("overhead_K%d", k), overhead}, k)
	}
	chart.Series = append(chart.Series, s)
	res.Charts = append(res.Charts, chart)
	res.Notef("availability gains are paid for in bandwidth ≈ linear in K — " +
		"the tradeoff the paper flags for ISP-facing future work")
	return res, nil
}

// AblationImpatience gives testbed peers finite patience (§3.3.1's
// impatient-peer semantics) and measures how bundling converts
// abandonments into completions.
func AblationImpatience(scale Scale, seed int64) (*Result, error) {
	runs := 2
	if scale == Full {
		runs = 6
	}
	res := &Result{
		ID:          "ablation-impatience",
		Description: "Abandonment rate vs bundle size with 600 s mean patience",
	}
	tb := Table{
		Name:   "Impatient peers (patience ~ exp(600 s))",
		Header: []string{"K", "arrivals", "completed", "abandoned", "loss rate"},
	}
	for _, k := range []int{1, 2, 4, 6, 8} {
		var arrivals, completed, abandoned int
		for run := 0; run < runs; run++ {
			cfg := Sec43.Swarm(Sec43.Files(k), seed+int64(run*10+k), 15000)
			cfg.ArrivalCutoff = 1200
			cfg.AbandonMeanSeconds = 600
			r, err := swarm.Run(cfg)
			if err != nil {
				return nil, err
			}
			arrivals += len(r.Records)
			completed += r.CompletedCount()
			abandoned += r.AbandonedCount()
		}
		loss := 0.0
		if arrivals > 0 {
			loss = float64(abandoned) / float64(arrivals)
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", arrivals),
			fmt.Sprintf("%d", completed),
			fmt.Sprintf("%d", abandoned),
			fmt.Sprintf("%.1f%%", 100*loss),
		})
		res.Notef("K=%d: %.1f%% of impatient peers lost", k, 100*loss)
	}
	res.Tables = append(res.Tables, tb)
	res.Notef("losses mirror Figure 3's shape: intermediate K lengthens downloads " +
		"across publisher gaps before self-sustainability kicks in; large K " +
		"(self-sustaining) converts abandonments into completions")
	return res, nil
}
