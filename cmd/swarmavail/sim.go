package main

import (
	"flag"
	"fmt"
	"io"

	"swarmavail/internal/dist"
	"swarmavail/internal/experiments"
	"swarmavail/internal/stats"
	"swarmavail/internal/swarm"
)

// runSim runs the block-level swarm simulator for a bundle of identical
// files and prints the resulting availability and download metrics,
// optionally with a peer timeline:
//
//	swarmavail sim -k 4 -lambda 0.0167 -size 4000 -peerup 50 -pubup 100 \
//	               -pubmode onoff -on 300 -off 900 -horizon 1200 [-timeline]
func runSim(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	tb := experiments.Sec43
	fs.Float64Var(&tb.Lambda, "lambda", tb.Lambda, "peer arrival rate per file (1/s)")
	fs.Float64Var(&tb.SizeKB, "size", tb.SizeKB, "file size (KB)")
	fs.Float64Var(&tb.PeerUpKBps, "peerup", tb.PeerUpKBps, "peer upload capacity (KB/s); 0 = BitTyrant distribution")
	fs.Float64Var(&tb.PubUpKBps, "pubup", tb.PubUpKBps, "publisher upload capacity (KB/s)")
	fs.Float64Var(&tb.OnSeconds, "on", tb.OnSeconds, "mean publisher on time (s)")
	fs.Float64Var(&tb.OffSeconds, "off", tb.OffSeconds, "mean publisher off time (s)")
	fs.Float64Var(&tb.LagSeconds, "lag", tb.LagSeconds, "departure lag after completion (s)")
	var (
		k        = fs.Int("k", 1, "bundle size (number of identical files)")
		pubMode  = fs.String("pubmode", "onoff", "publisher mode: always, onoff, first")
		horizon  = fs.Float64("horizon", 1200, "arrival horizon (s)")
		drain    = fs.Float64("drain", 12000, "extra time to let stragglers finish (s)")
		linger   = fs.Float64("linger", 0, "mean seeding time after completion (s)")
		seed     = fs.Int64("seed", 1, "random seed")
		timeline = fs.Bool("timeline", false, "render the peer timeline")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	// What the library would panic on, allocate before it can refuse (-k)
	// or quietly run with (a negative capacity is floored to 1 KB/s) is
	// refused here by flag name; every other range check is
	// swarm.Config.Validate's.
	switch {
	case *k < 1 || *k > swarm.MaxPieces:
		return refuse("k", *k, fmt.Sprintf("between 1 and %d", swarm.MaxPieces))
	case tb.PeerUpKBps < 0:
		return refuse("peerup", tb.PeerUpKBps, "positive, or 0 for the BitTyrant distribution")
	case tb.OnSeconds <= 0:
		return refuse("on", tb.OnSeconds, "positive")
	case tb.OffSeconds <= 0:
		return refuse("off", tb.OffSeconds, "positive")
	case tb.LagSeconds < 0:
		return refuse("lag", tb.LagSeconds, "non-negative")
	}

	cfg := tb.Swarm(tb.Files(*k), *seed, *horizon+*drain)
	cfg.ArrivalCutoff = *horizon
	cfg.LingerMeanSeconds = *linger
	if tb.PeerUpKBps == 0 {
		cfg.PeerUpload = dist.BitTyrantUploadCapacities()
	}
	switch *pubMode {
	case "always":
		cfg.PublisherMode = swarm.PublisherAlwaysOn
	case "onoff":
	case "first":
		cfg.PublisherMode = swarm.PublisherUntilFirstCompletion
	default:
		return refuse("pubmode", *pubMode, "always, onoff or first")
	}
	res, err := swarm.Run(cfg)
	if err != nil {
		return usageError{err} // Run fails only on cfg.Validate
	}

	var acc stats.Accumulator
	acc.AddAll(res.DownloadTimes())
	fmt.Fprintf(stdout, "bundle K=%d, aggregate λ=%.4g /s, %d pieces, horizon %g s (+%g s drain)\n",
		*k, cfg.AggregateLambda(), res.TotalPieces, *horizon, *drain)
	fmt.Fprintf(stdout, "  arrivals:              %d\n", len(res.Records))
	fmt.Fprintf(stdout, "  completed:             %d\n", res.CompletedCount())
	if acc.N() > 0 {
		fmt.Fprintf(stdout, "  mean download time:    %.0f s (± %.0f, 95%% CI)\n", acc.Mean(), acc.CI95())
		med, _ := stats.Median(res.DownloadTimes())
		fmt.Fprintf(stdout, "  median download time:  %.0f s\n", med)
	}
	fmt.Fprintf(stdout, "  publisher availability: %.3f\n", res.PublisherAvailabilityFraction())
	fmt.Fprintf(stdout, "  content availability:   %.3f\n", res.AvailabilityFraction())

	if !*timeline {
		return nil
	}
	return experiments.PeerTimeline("peer timeline", res).Render(stdout, 80)
}
