package ingest

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"swarmavail/internal/measure"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// shardMsg is the single message type flowing through a shard's queue:
// a batch to apply, or a closure to run with the shard's state to itself
// (Engine.onShards — a flush barrier, a per-swarm read, a checkpoint
// capture). Either way it runs after everything queued before it. Every
// other read is a flush followed by a load of the published view, so
// reads stay ordered after the writes submitted before them without a
// message kind per question asked.
type shardMsg struct {
	ops []Op         // batch of work
	do  func(*shard) // set when ops is nil
}

// shardSnap is one shard's immutable published aggregate view. Readers
// load it with a single atomic pointer load and never touch the shard
// queue; the shard goroutine replaces it wholesale, never mutates it.
// Nothing per swarm is published: a per-swarm read runs on the shard.
type shardSnap struct {
	epoch uint64    // apply watermark the snapshot reflects
	built time.Time // publish time, for the staleness bound
	sum   *Summary
	win   *WindowState
}

// shard owns a partition of the swarm keyspace. Only its goroutine
// touches the state — its swarms map included — so there are no locks
// anywhere on the apply path.
//
// The read view is maintained, not rebuilt. agg follows every window
// ring mutation at apply time; live is the shard Summary over what each
// swarm counted at its last publish (swarmState.counted), corrected at
// publish for the swarms that changed since the last one (the dirty
// list): subtract what was counted, add what is true now. A publish
// therefore costs the dirty swarms plus a clone of the aggregates — flat
// in the number of swarms resident — and allocates per shard, not per
// swarm.
type shard struct {
	idx     int
	in      chan shardMsg
	metrics *metrics
	pool    *batchPool
	maxAge  time.Duration
	cats    map[trace.Category]*CategoryCounters
	swarms  map[int]*swarmState

	agg       winAgg
	live      *Summary
	dirtyList []*swarmState

	// applied is the shard's apply watermark (ops applied since start);
	// snap is the latest published read snapshot. Together they give
	// readers the freshness test: snap.epoch == applied ⇒ nothing
	// unpublished. wanted is set by a reader that loaded snap and cleared
	// by publish: the throttled self-publish runs only for a view
	// somebody is looking at.
	applied atomic.Uint64
	snap    atomic.Pointer[shardSnap]
	wanted  atomic.Bool
}

func newShard(idx, queueDepth int, m *metrics, pool *batchPool, maxAge time.Duration) *shard {
	s := &shard{
		idx:     idx,
		in:      make(chan shardMsg, queueDepth),
		metrics: m,
		pool:    pool,
		maxAge:  maxAge,
	}
	s.reset()
	// Publish an empty snapshot up front so readers never observe nil.
	s.publish()
	return s
}

// reset returns the shard to the empty state: everything apply and
// install can touch. Only safe before the shard goroutine starts.
func (s *shard) reset() {
	s.swarms = make(map[int]*swarmState)
	s.cats = make(map[trace.Category]*CategoryCounters)
	s.agg = winAgg{}
	s.live = NewSummary()
	s.dirtyList = nil
}

// publish brings the read view up to the applied state: the live
// Summary is corrected by each dirty swarm's difference between what it
// counted and what it counts now, then the aggregates are cloned into a
// new immutable shardSnap.
func (s *shard) publish() {
	start := time.Now()
	for _, st := range s.dirtyList {
		s.live.account(&st.counted, -1)
		st.counted = st.count()
		s.live.account(&st.counted, +1)
		st.dirty = false
	}
	if s.live.FirstMonth.ExtremesLost() {
		s.rederiveExtremes(s.live.FirstMonth, func(c *counted) float64 { return c.firstMonth })
	}
	if s.live.Full.ExtremesLost() {
		s.rederiveExtremes(s.live.Full, func(c *counted) float64 { return c.full })
	}
	s.live.Swarms = len(s.swarms)

	sum := *s.live
	sum.FirstMonth = s.live.FirstMonth.Clone()
	sum.Full = s.live.Full.Clone()
	sum.Categories = make(map[trace.Category]CategoryCounters, len(s.cats))
	for cat, cc := range s.cats {
		sum.Categories[cat] = *cc
	}
	s.snap.Store(&shardSnap{
		epoch: s.applied.Load(),
		built: start,
		sum:   &sum,
		win:   s.agg.state(),
	})
	s.wanted.Store(false)
	s.metrics.observePublish(len(s.dirtyList), time.Since(start))
	clear(s.dirtyList)
	s.dirtyList = s.dirtyList[:0]
}

// publishDirty is the flush barrier's work: publish if anything changed,
// so a flush ⇒ the snapshots are fresh and an in-process flush-then-read
// stays read-your-writes even on the lock-free path.
func (s *shard) publishDirty() {
	if len(s.dirtyList) > 0 {
		s.publish()
	}
}

// rederiveExtremes restores a live sketch's exact min/max after the
// last holder of one left (stats.QuantileSketch.ExtremesLost): one scan
// of what the swarms counted, which is exactly the sketch's sample.
func (s *shard) rederiveExtremes(sk *stats.QuantileSketch, value func(*counted) float64) {
	sk.RederiveExtremes(func(observe func(float64)) {
		for _, st := range s.swarms {
			if st.counted.study {
				observe(value(&st.counted))
			}
		}
	})
}

// run drains the queue until the channel closes.
func (s *shard) run() {
	for msg := range s.in {
		if msg.ops != nil {
			start := time.Now()
			for _, op := range msg.ops {
				s.apply(op)
			}
			s.applied.Add(uint64(len(msg.ops)))
			s.metrics.observeBatch(s.idx, len(msg.ops), time.Since(start))
			// The batch buffer's ownership ends here: recycle it for
			// the next Submit/Writer fill.
			s.pool.put(msg.ops)
			// Throttled republish, on demand: while a reader holds the
			// current snapshot it trails the stream by at most maxAge;
			// with nobody reading (a bulk load, a replay, a follower
			// catching up) no view is built — the first reader after such
			// a stretch nudges one through freshSnap.
			if s.wanted.Load() && time.Since(s.snap.Load().built) >= s.maxAge {
				s.publish()
			}
			continue
		}
		msg.do(s)
	}
	// Final publish: after Close the snapshot is the complete state.
	s.publish()
}

// touch returns the swarm's state, creating it on first sight, and
// queues it for the next publish.
func (s *shard) touch(id int) *swarmState {
	st, ok := s.swarms[id]
	if !ok {
		st = &swarmState{}
		s.swarms[id] = st
	}
	if !st.dirty {
		s.markDirty(st)
	}
	return st
}

// markDirty queues a swarm whose state may differ from what it counted.
func (s *shard) markDirty(st *swarmState) {
	st.dirty = true
	s.dirtyList = append(s.dirtyList, st)
}

func (s *shard) apply(op Op) {
	switch op.kind {
	case opEvent:
		s.touch(op.rec.SwarmID).apply(op.rec, &s.agg)
	case opMeta:
		st := s.touch(op.aux.meta.ID)
		st.Meta = op.aux.meta
		st.Horizon = op.aux.horizon
		st.HasMeta = true
	case opCensus:
		census := &op.aux.census
		st := s.touch(census.Meta.ID)
		first := !st.HasCensus
		if !st.HasMeta {
			st.Meta = census.Meta
		}
		st.CensusSeeds = census.Seeds
		st.CensusLeechers = census.Leechers
		st.Downloads = census.Downloads
		st.HasCensus = true
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

// snapshot captures the shard's state for a checkpoint, swarms in id
// order and categories in category order: the file's bytes are a function
// of the state, not of map iteration.
func (s *shard) snapshot() *shardSnapshot {
	ids := make([]int, 0, len(s.swarms))
	for id := range s.swarms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	snap := &shardSnapshot{Idx: s.idx, Swarms: make([]swarmRecord, 0, len(ids))}
	for _, id := range ids {
		snap.Swarms = append(snap.Swarms, s.swarms[id].record(id))
	}
	for cat, cc := range s.cats {
		snap.Cats = append(snap.Cats, categoryRecord{cat, *cc})
	}
	slices.SortFunc(snap.Cats, func(a, b categoryRecord) int { return cmp.Compare(a.Category, b.Category) })
	return snap
}

// install merges a checkpointed shard snapshot into this shard's maps.
// Only safe before the shard goroutine starts (recovery) — swarm ids
// must already be routed to this shard by the current hash.
func (s *shard) install(snap *shardSnapshot) {
	// The installed state is unpublished: every swarm is dirty, and the
	// recovery flush (or the first read) publishes it.
	for _, r := range snap.Swarms {
		st := r.state(&s.agg)
		s.swarms[r.ID] = st
		s.markDirty(st)
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

// summaryCounters is a Summary's integer counters: rolling gauges and
// the headline counts under the shared §2 definitions. Declared once and
// embedded in both Summary and its /v1/state wire form SummaryState, so
// the tags here are that format and a counter added here is served and
// decoded by construction (Summary.Merge still has to add it up).
type summaryCounters struct {
	Swarms         int `json:"swarms"`
	StudySwarms    int `json:"study_swarms"` // swarms with events or registration
	CensusSwarms   int `json:"census_swarms"`
	SeedsOnline    int `json:"seeds_online"`
	LeechersOnline int `json:"leechers_online"`
	BusyPeriods    int `json:"busy_periods"`

	Events uint64 `json:"events"`

	FullyAvailableFirstMonth int `json:"fully_available_first_month"`
	MostlyUnavailable        int `json:"mostly_unavailable"`
}

// Summary is the engine-wide (or per-shard, pre-merge) aggregate
// snapshot: rolling gauges and headline counters, online availability
// sketches, and per-category bundling counters.
type Summary struct {
	summaryCounters

	// FirstMonth and Full are mergeable availability sketches over the
	// per-swarm online availabilities (Figure 1's two CDFs, live).
	FirstMonth *stats.QuantileSketch `json:"-"`
	Full       *stats.QuantileSketch `json:"-"`

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

// account adds (dir = +1) or removes (dir = -1) what one swarm counted:
// the gauges, the study and census memberships, the two headline
// counters and the two sketch observations. Both directions run the same
// code on the same value, so what a publish subtracts is exactly what an
// earlier publish added — and the zero value counts nothing.
func (s *Summary) account(c *counted, dir int) {
	s.SeedsOnline += dir * c.seeds
	s.LeechersOnline += dir * c.leechers
	s.BusyPeriods += dir * c.busy
	s.Events += uint64(dir) * c.events // two's complement: −1 subtracts
	if c.census {
		s.CensusSwarms += dir
	}
	if !c.study {
		return
	}
	s.StudySwarms += dir
	if measure.IsFullyAvailable(c.firstMonth) {
		s.FullyAvailableFirstMonth += dir
	}
	if measure.IsMostlyUnavailable(c.full) {
		s.MostlyUnavailable += dir
	}
	if dir > 0 {
		s.FirstMonth.Add(c.firstMonth)
		s.Full.Add(c.full)
	} else {
		s.FirstMonth.Remove(c.firstMonth)
		s.Full.Remove(c.full)
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
