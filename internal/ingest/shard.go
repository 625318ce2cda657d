package ingest

import (
	"sync/atomic"
	"time"

	"swarmavail/internal/measure"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// shardMsg is the single message type flowing through a shard's queue.
// Exactly one of the four kinds is set: a batch, a flush barrier, a
// per-swarm timeline request, or a checkpoint capture. Every other read
// is a barrier followed by a load of the published snapshot, so reads
// stay ordered after the writes submitted before them without a message
// kind (or a second copy of buildSnap's arithmetic) per question asked.
type shardMsg struct {
	ops []Op // batch of work

	ack chan<- struct{} // flush barrier: publish, then signal

	// Per-swarm window ring (nil reply = unknown). Rings are not part of
	// shardSnap — 66K ring copies per publish would dominate it — so
	// this one read stays a message.
	timelineID int
	timeline   chan<- *WindowState

	persist chan<- *shardSnapshot // checkpoint state capture request
}

// shardSnap is one shard's immutable published read snapshot. Readers
// load it with a single atomic pointer load and never touch the shard
// queue; the shard goroutine replaces it wholesale, never mutates it.
type shardSnap struct {
	epoch  uint64    // apply watermark the snapshot reflects
	built  time.Time // publish time, for the staleness bound
	sum    *Summary
	win    *WindowState
	swarms map[int]SwarmStats
}

// shard owns a partition of the swarm keyspace. Only its goroutine
// touches the maps — no locks anywhere on the apply path.
type shard struct {
	idx     int
	in      chan shardMsg
	metrics *Metrics
	pool    *batchPool
	wc      windowConfig
	maxAge  time.Duration
	swarms  map[int]*swarmState
	cats    map[trace.Category]*CategoryCounters

	// applied is the shard's apply watermark (ops applied since start);
	// snap is the latest published read snapshot. Together they give
	// readers the freshness test: snap.epoch == applied ⇒ nothing
	// unpublished.
	applied atomic.Uint64
	snap    atomic.Pointer[shardSnap]

	// Publish bookkeeping, touched only by the shard goroutine (or
	// before it starts).
	dirty   bool
	lastPub time.Time
}

func newShard(idx, queueDepth int, m *Metrics, pool *batchPool, wc windowConfig, maxAge time.Duration) *shard {
	s := &shard{
		idx:     idx,
		in:      make(chan shardMsg, queueDepth),
		metrics: m,
		pool:    pool,
		wc:      wc,
		maxAge:  maxAge,
		swarms:  make(map[int]*swarmState),
		cats:    make(map[trace.Category]*CategoryCounters),
	}
	// Publish an empty snapshot up front so readers never observe nil.
	s.publish()
	return s
}

// publish replaces the read snapshot with the current state.
func (s *shard) publish() {
	s.snap.Store(s.buildSnap())
	s.dirty = false
	s.lastPub = time.Now()
}

// run drains the queue until the channel closes.
func (s *shard) run() {
	for msg := range s.in {
		switch {
		case msg.ops != nil:
			start := time.Now()
			for _, op := range msg.ops {
				s.apply(op)
			}
			s.applied.Add(uint64(len(msg.ops)))
			s.dirty = true
			s.metrics.observeBatch(s.idx, len(msg.ops), time.Since(start))
			// The batch buffer's ownership ends here: recycle it for
			// the next Submit/Writer fill.
			s.pool.put(msg.ops)
			// Throttled republish: under sustained writes the snapshot
			// trails the stream by at most maxAge.
			if s.dirty && time.Since(s.lastPub) >= s.maxAge {
				s.publish()
			}
		case msg.ack != nil:
			// Publish before acknowledging, so Flush ⇒ snapshots are
			// fresh — in-process flush-then-read stays read-your-writes
			// even on the lock-free path.
			if s.dirty {
				s.publish()
			}
			msg.ack <- struct{}{}
		case msg.timeline != nil:
			msg.timeline <- s.timelineOf(msg.timelineID)
		case msg.persist != nil:
			msg.persist <- s.snapshot()
		}
	}
	// Final publish: after Close the snapshot is the complete state.
	s.publish()
}

func (s *shard) state(id int) *swarmState {
	st, ok := s.swarms[id]
	if !ok {
		st = &swarmState{}
		s.swarms[id] = st
	}
	return st
}

func (s *shard) apply(op Op) {
	switch op.kind {
	case opEvent:
		s.state(op.rec.SwarmID).apply(op.rec, &s.wc)
	case opMeta:
		st := s.state(op.aux.meta.ID)
		st.meta = op.aux.meta
		st.horizon = op.aux.horizon
		st.hasMeta = true
	case opCensus:
		census := &op.aux.census
		st := s.state(census.Meta.ID)
		first := !st.hasCensus
		if !st.hasMeta {
			st.meta = census.Meta
		}
		st.censusSeeds = census.Seeds
		st.censusLeechers = census.Leechers
		st.downloads = census.Downloads
		st.hasCensus = true
		if first {
			cat := census.Meta.Category
			cc, ok := s.cats[cat]
			if !ok {
				cc = &CategoryCounters{}
				s.cats[cat] = cc
			}
			cc.observe(*census)
		}
	}
}

// shardSnapshot is one shard's complete state in checkpoint wire form.
// It is built by the shard goroutine (consistent by construction) and
// serialized by the checkpointer off the apply path.
type shardSnapshot struct {
	Idx    int              `json:"idx"`
	Swarms []swarmRecord    `json:"swarms"`
	Cats   []categoryRecord `json:"cats,omitempty"`
}

// snapshot captures the shard's state for a checkpoint.
func (s *shard) snapshot() *shardSnapshot {
	snap := &shardSnapshot{Idx: s.idx, Swarms: make([]swarmRecord, 0, len(s.swarms))}
	for id, st := range s.swarms {
		snap.Swarms = append(snap.Swarms, st.record(id))
	}
	for cat, cc := range s.cats {
		snap.Cats = append(snap.Cats, categoryRecord{cat, *cc})
	}
	return snap
}

// install merges a checkpointed shard snapshot into this shard's maps.
// Only safe before the shard goroutine starts (recovery) — swarm ids
// must already be routed to this shard by the current hash.
func (s *shard) install(snap *shardSnapshot) {
	// The installed state is unpublished; the recovery flush (or the
	// first write) publishes it to the read snapshot.
	s.dirty = true
	for _, r := range snap.Swarms {
		s.swarms[r.ID] = r.state(&s.wc)
	}
	for _, cr := range snap.Cats {
		cc, ok := s.cats[cr.Category]
		if !ok {
			cc = &CategoryCounters{}
			s.cats[cr.Category] = cc
		}
		cc.merge(cr.CategoryCounters)
	}
}

// buildSnap captures the shard's complete read state in one pass:
// the mergeable Summary (integer sums plus per-swarm availabilities
// computed deterministically here, on the swarm's home shard), the
// per-swarm stats map, and the windowed aggregate.
func (s *shard) buildSnap() *shardSnap {
	sum := NewSummary()
	sum.Swarms = len(s.swarms)
	swarms := make(map[int]SwarmStats, len(s.swarms))
	fine := make(map[int64]*WindowBinState)
	coarse := make(map[int64]*WindowBinState)
	for id, st := range s.swarms {
		stats := st.stats()
		swarms[id] = stats
		sum.SeedsOnline += st.seedsOnline
		sum.LeechersOnline += st.leechersOnline
		sum.BusyPeriods += st.busyPeriods
		sum.Events += st.events
		if st.events > 0 || st.hasMeta {
			sum.FirstMonth.Add(stats.FirstMonth)
			sum.Full.Add(stats.Full)
			if measure.IsFullyAvailable(stats.FirstMonth) {
				sum.FullyAvailableFirstMonth++
			}
			if measure.IsMostlyUnavailable(stats.Full) {
				sum.MostlyUnavailable++
			}
			sum.StudySwarms++
		}
		if st.hasCensus {
			sum.CensusSwarms++
		}
		st.win.fold(fine, coarse)
	}
	for cat, cc := range s.cats {
		merged := sum.Categories[cat]
		merged.merge(*cc)
		sum.Categories[cat] = merged
	}
	win := newWindowState(&s.wc)
	win.Fine = sortedBins(fine)
	win.Coarse = sortedBins(coarse)
	return &shardSnap{
		epoch:  s.applied.Load(),
		built:  time.Now(),
		sum:    sum,
		win:    win,
		swarms: swarms,
	}
}

// timelineOf folds one swarm's ring into a WindowState of its own
// (nil when the swarm is unknown to this shard).
func (s *shard) timelineOf(id int) *WindowState {
	st, ok := s.swarms[id]
	if !ok {
		return nil
	}
	fine := make(map[int64]*WindowBinState)
	coarse := make(map[int64]*WindowBinState)
	st.win.fold(fine, coarse)
	w := newWindowState(&s.wc)
	w.Fine = sortedBins(fine)
	w.Coarse = sortedBins(coarse)
	return w
}

// Summary is the engine-wide (or per-shard, pre-merge) aggregate
// snapshot: rolling gauges, online availability sketches, headline
// counters, and per-category bundling counters.
type Summary struct {
	Swarms         int `json:"swarms"`
	StudySwarms    int `json:"study_swarms"` // swarms with events or registration
	CensusSwarms   int `json:"census_swarms"`
	SeedsOnline    int `json:"seeds_online"`
	LeechersOnline int `json:"leechers_online"`
	BusyPeriods    int `json:"busy_periods"`

	Events uint64 `json:"events"`

	// FirstMonth and Full are mergeable availability sketches over the
	// per-swarm online availabilities (Figure 1's two CDFs, live).
	FirstMonth *stats.QuantileSketch `json:"-"`
	Full       *stats.QuantileSketch `json:"-"`

	// Headline counters under the shared §2 definitions.
	FullyAvailableFirstMonth int `json:"fully_available_first_month"`
	MostlyUnavailable        int `json:"mostly_unavailable"`

	Categories map[trace.Category]CategoryCounters `json:"-"`
}

// NewSummary returns an empty summary with sketches of the standard
// geometry.
func NewSummary() *Summary {
	return &Summary{
		FirstMonth: stats.NewAvailabilitySketch(),
		Full:       stats.NewAvailabilitySketch(),
		Categories: make(map[trace.Category]CategoryCounters),
	}
}

// Merge folds other into s.
func (s *Summary) Merge(other *Summary) {
	s.Swarms += other.Swarms
	s.StudySwarms += other.StudySwarms
	s.CensusSwarms += other.CensusSwarms
	s.SeedsOnline += other.SeedsOnline
	s.LeechersOnline += other.LeechersOnline
	s.BusyPeriods += other.BusyPeriods
	s.Events += other.Events
	s.FirstMonth.Merge(other.FirstMonth)
	s.Full.Merge(other.Full)
	s.FullyAvailableFirstMonth += other.FullyAvailableFirstMonth
	s.MostlyUnavailable += other.MostlyUnavailable
	for cat, cc := range other.Categories {
		merged := s.Categories[cat]
		merged.merge(cc)
		s.Categories[cat] = merged
	}
}

// Headlines converts the counters to measure's offline headline type.
func (s *Summary) Headlines() measure.StudyHeadlines {
	h := measure.StudyHeadlines{Swarms: s.StudySwarms}
	if s.StudySwarms > 0 {
		h.FullyAvailableFirstMonth = float64(s.FullyAvailableFirstMonth) / float64(s.StudySwarms)
		h.MostlyUnavailableOverall = float64(s.MostlyUnavailable) / float64(s.StudySwarms)
	}
	return h
}
