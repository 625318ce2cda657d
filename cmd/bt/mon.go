package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"swarmavail/internal/monitor"
	"swarmavail/internal/obs"
)

// runMon is `bt mon`, the §2-style monitoring agent: it joins a swarm's
// control plane (HTTP or BEP 15 UDP tracker), records the bitfields
// peers advertise, and reports seed availability over time — without
// uploading or downloading content.
//
// It always drives a monitor.Fleet. One monitor and no -stream is the
// interactive case, printing a line per round; -fleet N is the paper's
// measurement infrastructure in miniature: N concurrent monitors with
// jittered probe phases and a shared dial budget, each streaming its
// observations into availd/availgw over the binary ingest protocol
// (-stream) with exactly-once keys.
//
//	bt mon -torrent bundle.torrent [-interval 10s] [-count 0]
//	bt mon -torrent bundle.torrent -fleet 64 -stream 127.0.0.1:9400 -swarm 1
//
// Rounds run on a ticker, so the cadence is independent of probe
// duration; -count bounds the rounds of each monitor, failed ones
// included. SIGINT/SIGTERM closes every open availability interval and
// flushes the streams before the summary line.
func runMon(ctx context.Context, fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	cfg := monitor.Config{
		Metrics: obs.NewRegistry(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "bt mon: "+format+"\n", args...)
		},
	}
	torrentPath := fs.String("torrent", "", "torrent file to monitor (required)")
	fs.DurationVar(&cfg.Interval, "interval", 10*time.Second, "probe interval")
	fs.IntVar(&cfg.Rounds, "count", 0, "number of probe rounds per monitor (0 = forever)")
	fs.DurationVar(&cfg.Probe.DialTimeout, "timeout", 3*time.Second, "per-peer connect timeout")
	fs.DurationVar(&cfg.Probe.BitfieldWait, "bitfield-wait", 0, "max wait for a peer's first message (default: -timeout)")
	fs.IntVar(&cfg.Monitors, "fleet", 1, "number of concurrent monitors")
	fs.IntVar(&cfg.DialBudget, "dial-budget", 0, "fleet-wide concurrent probe cap (0 = fleet size)")
	fs.BoolVar(&cfg.Probe.PEX, "pex", false, "expand each probe with BEP-11 peer exchange gossip")
	fs.StringVar(&cfg.Stream.Addr, "stream", "", "availd/availgw binary ingest address to stream records to")
	fs.IntVar(&cfg.SwarmID, "swarm", 1, "swarm id for streamed records")
	fs.StringVar(&cfg.Stream.Source, "source", "", "exactly-once source id prefix (default: random)")
	admin := fs.String("admin", "", "admin listen address for /metrics and /debug/vars")
	if err := parse(fs, args); err != nil {
		return err
	}
	var err error
	if cfg.Torrent, err = loadTorrent(*torrentPath); err != nil {
		return err
	}
	obs.RegisterProcessMetrics(cfg.Metrics)
	stopAdmin, err := startAdmin(fs.Name(), *admin, cfg.Metrics, false, stdout, stderr)
	if err != nil {
		return err
	}
	defer stopAdmin()

	var f *monitor.Fleet
	if cfg.Monitors <= 1 && cfg.Stream.Addr == "" {
		// Interactive: a lone monitor's rounds come one at a time, so the
		// running tally read here is the tally as of this round.
		cfg.OnRound = func(r monitor.Round) {
			if r.Err != nil {
				return // Logf has said why
			}
			fmt.Fprintf(stdout, "%s  peers=%d seeds=%d leechers=%d  seed-availability=%.2f\n",
				time.Now().Format(time.TimeOnly), r.Peers, r.Seeds, r.Peers-r.Seeds,
				f.Stats().SeedAvailability())
		}
	}
	if f, err = monitor.New(cfg); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bt mon: fleet of %d monitoring %q via %s\n", f.Stats().Monitors, cfg.Torrent.Info.Name, cfg.Torrent.Announce)
	stats, err := f.Run(ctx)
	fmt.Fprintf(stdout, "bt mon: fleet done  monitors=%d rounds=%d failures=%d peers-observed=%d records=%d seed-availability=%.2f\n",
		stats.Monitors, stats.Rounds, stats.ProbeFailures, stats.PeersObserved,
		stats.RecordsEmitted, stats.SeedAvailability())
	return err
}
