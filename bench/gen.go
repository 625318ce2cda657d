package main

import (
	"cmp"
	"math/rand"
	"slices"

	"swarmavail/internal/ingest"
	"swarmavail/internal/trace"
)

// tailStepDays is the event-time step between consecutive tail records:
// a million records span one day, so a run's tail crosses a few window
// bins, as a live campaign does.
const tailStepDays = 1e-6

// preloadEvent is one publisher transition of the preloaded study, kept
// compact so 66 000 swarms' worth (≈2.8M events) fits in tens of MiB.
type preloadEvent struct {
	t      float64
	swarm  int32
	online bool
}

// generator makes a workload's whole input from the seed: the preload
// (a trace.GenerateStudy campaign: registrations, then publisher
// sessions in global time order) and an endless live tail of peer churn
// whose event time continues from the end of the preload. The SUT only
// ever sees the generated ops.
type generator struct {
	seed   int64
	w      WriterGroup
	traces []trace.SwarmTrace
	events []preloadEvent

	// Tail state: one bit per (swarm, peer) so each record toggles its
	// peer and on/off events alternate validly.
	rng       *rand.Rand
	zipf      *rand.Zipf
	on        []uint64
	sent      uint64
	tailStart float64
}

func newGenerator(p *Profile, seed int64) *generator {
	g := &generator{seed: seed, w: p.Groups.Writers}
	g.traces = trace.GenerateStudy(trace.DefaultStudyConfig(p.Swarms, seed))
	for _, t := range g.traces {
		for _, s := range t.SeedSessions {
			g.events = append(g.events,
				preloadEvent{t: s.Start, swarm: int32(t.Meta.ID), online: true},
				preloadEvent{t: s.End, swarm: int32(t.Meta.ID), online: false})
		}
		g.tailStart = max(g.tailStart, t.MonitoredDays)
	}
	// Stable, so a swarm's back-to-back sessions keep off-before-on order
	// at equal times.
	slices.SortStableFunc(g.events, func(a, b preloadEvent) int { return cmp.Compare(a.t, b.t) })
	g.restartTail()
	return g
}

// restartTail rewinds the live tail to its first record, so the
// reference engine can be fed the identical stream after the run.
func (g *generator) restartTail() {
	g.rng = rand.New(rand.NewSource(g.seed ^ 0x7a11))
	g.zipf = nil
	if g.w.Skew.Kind == "zipf" {
		g.zipf = rand.NewZipf(g.rng, g.w.Skew.S, 1, uint64(len(g.traces)-1))
	}
	g.on = make([]uint64, (len(g.traces)*g.w.PeersPerSwarm+63)/64)
	g.sent = 0
}

// preloadEvents is the number of event records in the preload — what
// /v1/summary's "events" reads once it is applied.
func (g *generator) preloadEvents() uint64 { return uint64(len(g.events)) }

// preload calls put with every preload op in stream order.
func (g *generator) preload(put func(ingest.Op) error) error {
	for _, t := range g.traces {
		if err := put(ingest.MetaOp(t.Meta, t.MonitoredDays)); err != nil {
			return err
		}
	}
	for _, ev := range g.events {
		rec := ingest.Record{
			SwarmID: int(ev.swarm),
			PeerID:  uint64(ev.swarm)<<1 | 1, // odd: the publisher; tail peers are even
			Seed:    true,
			Online:  ev.online,
			Time:    ev.t,
		}
		if err := put(ingest.EventOp(rec)); err != nil {
			return err
		}
	}
	return nil
}

// next returns the tail's next record.
func (g *generator) next() ingest.Record {
	var swarm int
	if g.zipf != nil {
		swarm = int(g.zipf.Uint64())
	} else {
		swarm = g.rng.Intn(len(g.traces))
	}
	peer := g.rng.Intn(g.w.PeersPerSwarm)
	bit := uint(swarm*g.w.PeersPerSwarm + peer)
	g.on[bit/64] ^= 1 << (bit % 64)
	g.sent++
	return ingest.Record{
		SwarmID: swarm,
		PeerID:  uint64(peer) << 1,
		Seed:    float64(peer) < g.w.SeedShare*float64(g.w.PeersPerSwarm),
		Online:  g.on[bit/64]&(1<<(bit%64)) != 0,
		Time:    g.tailStart + float64(g.sent)*tailStepDays,
	}
}

// fill overwrites recs with the tail's next len(recs) records.
func (g *generator) fill(recs []ingest.Record) {
	for i := range recs {
		recs[i] = g.next()
	}
}
