// Package monitor runs fleets of lightweight swarm monitors — the §2
// measurement methodology at production fan-in. Each monitor announces
// to the swarm's tracker (HTTP or BEP 15 UDP), probes the peers it
// learns about (PEX-assisted when enabled), diffs consecutive rounds
// into online/offline transitions, and streams the resulting records
// into availd/availgw over the binary ingest protocol with exactly-once
// keys. A Fleet is what cmd/bt mon drives, whatever -fleet says.
package monitor

import (
	"context"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/peer"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
)

// Config parameterises a Fleet.
type Config struct {
	// Torrent is the swarm to monitor.
	Torrent *metainfo.Torrent
	// SwarmID keys the streamed records (trace schema swarm id).
	SwarmID int
	// Monitors is the fleet size (1 if <= 0).
	Monitors int
	// Interval is the probe cadence per monitor (10s if 0). Monitor 0
	// starts at once; every other monitor's rounds are offset by a
	// jittered phase in [0, Interval), drawn from a fixed seed, so a
	// thousand monitors do not thunder in step.
	Interval time.Duration
	// Rounds bounds the probe rounds per monitor (0 = until ctx ends).
	Rounds int
	// Probe is every round's peer.Probe configuration, used as is:
	// timeouts, PEX, the tracker clients (by URL scheme) and the
	// peer-probe dialer (faultnet goes there).
	Probe peer.ProbeConfig
	// DialBudget caps fleet-wide concurrent probes; while the budget is
	// exhausted further monitors wait their turn (Monitors if <= 0,
	// i.e. effectively uncapped). This is the shared resource limit
	// that lets one host run a 1000-monitor fleet without exhausting
	// sockets.
	DialBudget int

	// Stream configures the binary ingest connection; its Source is
	// used as a prefix — monitor i streams as "<Source>-i" so every
	// monitor is its own exactly-once sender stream. Leave Addr and
	// Dial empty for the interactive mode: rounds are probed, diffed
	// and tallied (OnRound, Stats) and no record leaves the process.
	Stream ingest.StreamClientConfig
	// Meta, when set, is registered (with HorizonDays) over the control
	// stream before any monitor emits events, so the engine knows the
	// swarm before its first transition arrives.
	Meta        *trace.SwarmMeta
	HorizonDays float64

	// Logf, when set, receives per-round fleet progress lines.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the btmon_* series (a private
	// registry when nil). They are the fleet's only tally — Stats reads
	// them — so run one fleet per registry.
	Metrics *obs.Registry
	// OnRound, when set, is called after each monitor round, tallied
	// already, from that monitor's goroutine.
	OnRound func(Round)
}

// Round is one completed probe round as OnRound sees it.
type Round struct {
	Monitor int   // fleet member index
	Index   int   // that monitor's round number, from 0
	Peers   int   // peers that answered the probe
	Seeds   int   // of those, peers advertising a complete bitfield
	Err     error // why the announce failed; Peers and Seeds are then 0
}

// Stats is a fleet run's summary.
type Stats struct {
	Monitors       int
	Rounds         int    // total rounds completed across the fleet
	ProbeFailures  int    // rounds whose announce failed
	PeersObserved  int    // peer observations summed over rounds
	SeedRounds     int    // rounds that saw at least one seed
	RecordsEmitted uint64 // records handed to stream clients
	FramesAcked    uint64 // DATA frames acknowledged by the ingest server
}

// SeedAvailability is the §2 headline over the run so far: the share of
// successful rounds that saw at least one seed (0 before the first).
func (s Stats) SeedAvailability() float64 {
	if ok := s.Rounds - s.ProbeFailures; ok > 0 {
		return float64(s.SeedRounds) / float64(ok)
	}
	return 0
}

// Fleet is a configured monitor fleet; create with New, drive with Run.
type Fleet struct {
	cfg Config

	rounds      *obs.Counter // btmon_probes_total
	failures    *obs.Counter // btmon_probe_failures_total
	peers       *obs.Counter // btmon_peers_observed_total
	seedRounds  *obs.Counter // btmon_seed_rounds_total
	records     *obs.Counter // btmon_records_emitted_total
	framesAcked *obs.Counter // btmon_frames_acked_total
}

// New validates cfg and builds a Fleet.
func New(cfg Config) (*Fleet, error) {
	if cfg.Torrent == nil {
		return nil, fmt.Errorf("monitor: torrent required")
	}
	if cfg.Monitors <= 0 {
		cfg.Monitors = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.DialBudget <= 0 {
		cfg.DialBudget = cfg.Monitors
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Fleet{
		cfg:         cfg,
		rounds:      reg.Counter("btmon_probes_total"),
		failures:    reg.Counter("btmon_probe_failures_total"),
		peers:       reg.Counter("btmon_peers_observed_total"),
		seedRounds:  reg.Counter("btmon_seed_rounds_total"),
		records:     reg.Counter("btmon_records_emitted_total"),
		framesAcked: reg.Counter("btmon_frames_acked_total"),
	}, nil
}

// Stats is the tally so far, read from the fleet's instruments — the
// one place a Stats is assembled, so a scrape and a summary line cannot
// disagree.
func (f *Fleet) Stats() Stats {
	return Stats{
		Monitors:       f.cfg.Monitors,
		Rounds:         int(f.rounds.Value()),
		ProbeFailures:  int(f.failures.Value()),
		PeersObserved:  int(f.peers.Value()),
		SeedRounds:     int(f.seedRounds.Value()),
		RecordsEmitted: f.records.Value(),
		FramesAcked:    f.framesAcked.Value(),
	}
}

// streaming reports whether records leave the process.
func (f *Fleet) streaming() bool {
	return f.cfg.Stream.Addr != "" || f.cfg.Stream.Dial != nil
}

// Run drives the fleet until every monitor finishes its rounds or ctx
// is cancelled, then flushes all streams and returns the tally. On
// cancellation each monitor still closes its differ (emitting final
// departures) and flushes, so Ctrl-C loses nothing that was observed.
// The trace clock starts at Run: a record's Time is the days since.
func (f *Fleet) Run(ctx context.Context) (Stats, error) {
	cfg := f.cfg
	epoch := time.Now()

	// Register the swarm before any monitor can emit an event for it.
	if f.streaming() && cfg.Meta != nil {
		ctl := ingest.NewStreamClient(f.streamCfg("meta"))
		if err := ctl.Put(ingest.MetaOp(*cfg.Meta, cfg.HorizonDays)); err != nil {
			return f.Stats(), fmt.Errorf("monitor: register swarm: %w", err)
		}
		if err := ctl.Close(); err != nil {
			return f.Stats(), fmt.Errorf("monitor: register swarm: %w", err)
		}
	}

	// The dial budget is claimed per probe round, not per fleet member:
	// a waiting monitor costs a goroutine, not a socket.
	budget := make(chan struct{}, cfg.DialBudget)
	phaseRng := mrand.New(mrand.NewSource(0))
	phases := make([]time.Duration, cfg.Monitors)
	for i := range phases {
		phases[i] = time.Duration(phaseRng.Int63n(int64(cfg.Interval)))
	}
	phases[0] = 0 // a lone monitor's first line is immediate

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Monitors)
	for i := 0; i < cfg.Monitors; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			if err := f.runMonitor(ctx, idx, phases[idx], epoch, budget); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	var firstErr error
	for err := range errs {
		if firstErr == nil {
			firstErr = err
		}
	}
	return f.Stats(), firstErr
}

// streamCfg clones the stream config with a per-monitor Source so each
// monitor is an independent exactly-once sender stream.
func (f *Fleet) streamCfg(suffix string) ingest.StreamClientConfig {
	sc := f.cfg.Stream
	if sc.Source == "" {
		sc.Source = ingest.NewSourceID()
	}
	sc.Source = sc.Source + "-" + suffix
	return sc
}

// runMonitor is one fleet member: jittered start, ticker cadence,
// probe → diff → stream each round, final departures + flush on exit.
func (f *Fleet) runMonitor(ctx context.Context, idx int, phase time.Duration, epoch time.Time, budget chan struct{}) error {
	cfg := f.cfg
	select {
	case <-time.After(phase):
	case <-ctx.Done():
		return nil
	}

	var stream *ingest.StreamClient
	if f.streaming() {
		stream = ingest.NewStreamClient(f.streamCfg(fmt.Sprintf("m%04d", idx)))
	}
	diff := ingest.NewProbeDiff(cfg.SwarmID)

	emit := func(ops []ingest.Op) error {
		for _, op := range ops {
			f.records.Inc()
			if stream != nil {
				if err := stream.Put(op); err != nil {
					return fmt.Errorf("monitor %d: stream: %w", idx, err)
				}
			}
		}
		return nil
	}

	// A ticker (not Sleep) keeps the cadence independent of probe
	// duration, so a slow swarm is not under-sampled.
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()

	var runErr error
	for round := 0; cfg.Rounds <= 0 || round < cfg.Rounds; round++ {
		if round > 0 {
			select {
			case <-ticker.C:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		select {
		case budget <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		results, err := peer.Probe(cfg.Torrent, cfg.Probe)
		<-budget
		tDays := time.Since(epoch).Seconds() / 86400
		r := Round{Monitor: idx, Index: round, Peers: len(results), Err: err}
		f.rounds.Inc()
		if err != nil {
			f.failures.Inc()
			if cfg.Logf != nil {
				cfg.Logf("monitor %d round %d: announce failed: %v", idx, round, err)
			}
			if cfg.OnRound != nil {
				cfg.OnRound(r)
			}
			continue
		}
		obs := make([]ingest.PeerObservation, 0, len(results))
		for _, pr := range results {
			obs = append(obs, ingest.PeerObservation{Key: ingest.ObservationKey(pr.Addr), Seed: pr.Seed})
			if pr.Seed {
				r.Seeds++
			}
		}
		f.peers.Add(uint64(r.Peers))
		if r.Seeds > 0 {
			f.seedRounds.Inc()
		}
		if err := emit(diff.Ops(tDays, obs)); err != nil {
			runErr = err
			break
		}
		if cfg.OnRound != nil {
			cfg.OnRound(r)
		}
	}

	// Close the availability intervals and drain the stream, even on
	// cancellation — this is the final-flush guarantee.
	if err := emit(diff.Close(time.Since(epoch).Seconds() / 86400)); err != nil && runErr == nil {
		runErr = err
	}
	if stream != nil {
		if err := stream.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("monitor %d: close stream: %w", idx, err)
		}
		f.framesAcked.Add(stream.Acked())
	}
	return runErr
}
