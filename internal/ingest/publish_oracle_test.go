package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swarmavail/internal/measure"
	"swarmavail/internal/trace"
)

// rebuildSnapOracle is the full rebuild the incremental view replaced,
// kept as the reference: one pass over every swarm re-deriving the
// Summary, the per-swarm stats and (by folding every ring) the windowed
// aggregate from the shard's ground-truth state. It shares no arithmetic
// with publish beyond swarmState.stats.
func rebuildSnapOracle(s *shard) (*Summary, *WindowState, map[int]SwarmStats) {
	sum := NewSummary()
	sum.Swarms = len(s.swarms)
	swarms := make(map[int]SwarmStats, len(s.swarms))
	fine := make(map[int64]*WindowBinState)
	coarse := make(map[int64]*WindowBinState)
	for id, st := range s.swarms {
		stats := st.stats()
		swarms[id] = stats
		sum.SeedsOnline += st.SeedsOnline
		sum.LeechersOnline += st.LeechersOnline
		sum.BusyPeriods += st.BusyPeriods
		sum.Events += st.Events
		if st.Events > 0 || st.HasMeta {
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
		if st.HasCensus {
			sum.CensusSwarms++
		}
		st.win.fold(fine, coarse)
	}
	for cat, cc := range s.cats {
		merged := sum.Categories[cat]
		merged.merge(*cc)
		sum.Categories[cat] = merged
	}
	win := newWindowState()
	win.Fine = sortedBins(fine)
	win.Coarse = sortedBins(coarse)
	return sum, win, swarms
}

// statsKey renders a SwarmStats for comparison. Not JSON: the hostile
// timestamps below put ±Inf and NaN in fields encoding/json refuses.
func statsKey(st SwarmStats) string {
	census := "<nil>"
	if st.Census != nil {
		census = fmt.Sprintf("%+v", *st.Census)
	}
	st.Census = nil
	return fmt.Sprintf("%+v census=%s", st, census)
}

// sameCounted compares two counted values field by field, a NaN
// availability equal to a NaN (the hostile timestamps produce them).
func sameCounted(a, b counted) bool {
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	return a.seeds == b.seeds && a.leechers == b.leechers && a.busy == b.busy && a.events == b.events &&
		same(a.firstMonth, b.firstMonth) && same(a.full, b.full) && a.study == b.study && a.census == b.census
}

// viewJSON renders a shard's published aggregate view: the bodies it
// contributes to /v1/state and /v1/window/state.
func viewJSON(t *testing.T, s *shard) string {
	t.Helper()
	snap := s.snap.Load()
	b, err := json.Marshal([]any{snap.sum.State(), snap.win})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func oracleShard() *shard {
	return newShard(0, 1, newMetrics(nil, 1), &batchPool{}, 0)
}

// checkPublished publishes s and asserts the published view equals the
// oracle's rebuild: summary wire form (sketch bins, n, exact min/max and
// category counters included), window state, and what every swarm
// counted — the mirror the next publish subtracts.
func checkPublished(t *testing.T, s *shard, when string) {
	t.Helper()
	s.publish()
	snap := s.snap.Load()
	wantSum, wantWin, wantSwarms := rebuildSnapOracle(s)

	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return string(b)
	}
	if got, want := mustJSON(snap.sum.State()), mustJSON(wantSum.State()); got != want {
		t.Fatalf("%s: published summary diverged from the rebuild\n--- published ---\n%s\n--- oracle ---\n%s", when, got, want)
	}
	if got, want := mustJSON(snap.win), mustJSON(wantWin); got != want {
		t.Fatalf("%s: published window diverged from the rebuild\n--- published ---\n%s\n--- oracle ---\n%s", when, got, want)
	}
	for id, stats := range wantSwarms {
		// What the Summary counts for the swarm, derived from its exported
		// stats rather than through count().
		want := counted{
			seeds: stats.SeedsOnline, leechers: stats.LeechersOnline, busy: stats.BusyPeriods,
			events: stats.Events, firstMonth: stats.FirstMonth, full: stats.Full,
			study: stats.Events > 0 || stats.Registered, census: stats.Census != nil,
		}
		if got := s.swarms[id].counted; !sameCounted(got, want) {
			t.Fatalf("%s: swarm %d counted %+v, oracle %+v (stats %s)", when, id, got, want, statsKey(stats))
		}
	}
	if len(s.dirtyList) != 0 {
		t.Fatalf("%s: %d swarms still on the dirty list after a publish", when, len(s.dirtyList))
	}

	// The aggregate's resident size follows the live bins, never the span
	// of timestamps: the table is fixed, and the far map holds live bins
	// only — of which a swarm can own at most one ring's worth.
	far := len(s.agg.fine.far) + len(s.agg.coarse.far)
	live := len(snap.win.Fine) + len(snap.win.Coarse)
	if bound := len(s.swarms) * (winFineBins + winCoarseBins); far > live || live > bound {
		t.Fatalf("%s: aggregate holds %d far bins for %d live ones (bound %d)", when, far, live, bound)
	}
}

// The spans the op stream steps by, in days: the fine window and all
// retention (fine, then coarse).
const (
	fineDays      = winFineBins * winBinDays
	retentionDays = winRetentionBins * winBinDays
)

// opStream generates one seeded op stream over a handful of swarms,
// shaped to hit every ring transition: small steps, head jumps past the
// fine window and past all retention, late events behind the fine window
// and beyond retention, re-registration under a new horizon, census
// before and after registration, and hostile timestamps. Its steps are
// multiples of the window spans, and ringCoverage checks they landed.
type opStream struct {
	rng    *rand.Rand
	clock  map[int]float64
	swarms int
	// nonFinite adds NaN and ±Inf to the hostile clocks. Off until the
	// checkpoint is taken: encoding/json cannot carry them, so a swarm
	// that saw one cannot be checkpointed. (The op codec refuses them for
	// that reason; a memory-only engine still hands them to apply.)
	nonFinite bool
}

func (g *opStream) next() Op {
	id := g.rng.Intn(g.swarms)
	switch p := g.rng.Float64(); {
	case p < 0.06:
		return MetaOp(trace.SwarmMeta{ID: id, Category: trace.Movies, Title: fmt.Sprintf("s%d", id)}, 1+g.rng.Float64()*3*retentionDays)
	case p < 0.12:
		cats := []trace.Category{trace.Movies, trace.Books, trace.TV}
		files := make([]trace.FileMeta, 1+g.rng.Intn(3))
		return CensusOp(trace.Snapshot{
			Meta:      trace.SwarmMeta{ID: id, Category: cats[g.rng.Intn(len(cats))], Files: files},
			Seeds:     g.rng.Intn(3),
			Leechers:  g.rng.Intn(5),
			Downloads: g.rng.Intn(1000),
		})
	}
	t := g.clock[id]
	switch p := g.rng.Float64(); {
	case p < 0.03:
		t += 1e-13 * winBinDays // a span that quantizes to zero units
	case p < 0.70:
		t += g.rng.Float64() * 1.5 * winBinDays // same bin or the next
	case p < 0.78:
		// The head jumps past the fine window: by less than retention, so
		// the evicted bins straddle the coarse floor, or by a little more.
		t += fineDays + g.rng.Float64()*retentionDays
	case p < 0.82:
		t += retentionDays * (1 + g.rng.Float64()) // past fine + coarse×fold
	case p < 0.90:
		t -= g.rng.Float64() * fineDays * 2 // late: in or just behind the fine window
	case p < 0.95:
		t -= retentionDays * (1 + g.rng.Float64()) // late: beyond retention
	default:
		// Hostile clocks. They are confined to the last swarm, which they
		// freeze (nothing is later than +Inf), so the others keep moving.
		id = g.swarms - 1
		hostile := []float64{0, -3, 1e12, math.NaN(), math.Inf(1), math.Inf(-1)}
		if !g.nonFinite {
			hostile = hostile[:3]
		}
		t = hostile[g.rng.Intn(len(hostile))]
	}
	if t > g.clock[id] {
		g.clock[id] = t
	}
	return EventOp(Record{SwarmID: id, PeerID: uint64(g.rng.Intn(4)), Seed: g.rng.Intn(3) > 0, Online: g.rng.Intn(5) > 1, Time: t})
}

// ringCoverage counts the ring transitions an op stream drove, so the
// oracle test can assert it exercised every path it claims to. Each is
// read off the target swarm's ring as it stands before the op, from the
// definition of the window rather than through the code under test.
type ringCoverage struct {
	fineEvicted    int // nonempty fine bins pushed out of the fine window...
	coarseLanded   int // ...that a coarse bin still in retention took
	evictedToVoid  int // ...that fell straight past retention
	coarseAgedOut  int // nonempty coarse bins pushed out of retention
	jumpFine       int // head moves that emptied the whole fine ring
	jumpRetention  int // head moves past all retention
	lateCoarse     int // events behind the fine window, credited to a coarse bin
	lateDropped    int // events older than retention
	farFuture      int // the 1e12 timestamp
	nonFinite      int // NaN and ±Inf timestamps
	restoredFine   int // checkpointed bins landed by restore
	restoredCoarse int
	restoredOver   int // ...carrying a value larger than a slot can hold
	foldOnFull     int // evicted fine bins folding into a coarse slot whose Busy is saturated
}

func (c *ringCoverage) observe(s *shard, op Op) {
	if op.kind != opEvent {
		return
	}
	t := op.rec.Time
	switch {
	case math.IsNaN(t) || math.IsInf(t, 0):
		c.nonFinite++
	case t == 1e12:
		c.farFuture++
	}
	st := s.swarms[op.rec.SwarmID]
	if st == nil || !st.win.inited() {
		return
	}
	r := &st.win
	b := max(binIndex(t), 0)
	if b <= r.fineHi {
		switch {
		case b > r.fineHi-winFineBins:
		case b/winFoldFactor > r.coarseHi-winCoarseBins:
			c.lateCoarse++
		default:
			c.lateDropped++
		}
		return
	}
	if b-r.fineHi >= winFineBins {
		c.jumpFine++
	}
	if b-r.fineHi > winRetentionBins {
		c.jumpRetention++
	}
	coarseFloor := b/winFoldFactor - winCoarseBins // newest coarse index out of retention
	fine, coarse := r.records()
	for _, rec := range fine {
		if rec.Index > b-winFineBins {
			continue
		}
		c.fineEvicted++
		if cb := rec.Index / winFoldFactor; cb > coarseFloor {
			c.coarseLanded++
			if cb <= r.coarseHi && r.coarseSlot(cb).Busy == math.MaxUint32 {
				c.foldOnFull++
			}
		} else {
			c.evictedToVoid++
		}
	}
	for _, rec := range coarse {
		if rec.Index <= coarseFloor {
			c.coarseAgedOut++
		}
	}
}

// TestPublishedViewMatchesRebuildOracle is the property the incremental
// read view stands on: after any op stream, with publishes at any
// points, across a checkpoint and across a reset, what the shard
// publishes is byte-identical to a from-scratch rebuild of its state.
func TestPublishedViewMatchesRebuildOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := &opStream{rng: rng, clock: make(map[int]float64), swarms: 9}
			var cov ringCoverage
			s := oracleShard()
			drive := func(s *shard, n int, phase string) {
				for i := 0; i < n; i++ {
					op := g.next()
					cov.observe(s, op)
					s.apply(op)
					if rng.Intn(20) == 0 {
						checkPublished(t, s, fmt.Sprintf("%s op %d", phase, i))
					}
				}
				checkPublished(t, s, phase+" end")
			}
			drive(s, 1500, "live")

			// Checkpoint → install, through the wire form; the restored
			// shard then keeps applying, so later evictions debit what
			// restore credited.
			wire, err := json.Marshal(s.snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var ckpt shardSnapshot
			if err := json.Unmarshal(wire, &ckpt); err != nil {
				t.Fatal(err)
			}
			// Every other swarm's bins come back larger than a slot can
			// hold, as a foreign or damaged checkpoint could carry them.
			// restore must cut each value to its slot on both sides of the
			// mirror, and what follows — events on a full fine slot,
			// evictions folding into a full coarse one, their own eviction —
			// must keep the ring and the aggregate one thing.
			for i := range ckpt.Swarms {
				rec := &ckpt.Swarms[i]
				cov.restoredFine += len(rec.WinFine)
				cov.restoredCoarse += len(rec.WinCoarse)
				if i%2 == 1 {
					continue
				}
				for j := range rec.WinFine {
					rec.WinFine[j].Events += 1 << 32
					rec.WinFine[j].Tracked += 1 << 40
					cov.restoredOver += 2
				}
				if n := len(rec.WinCoarse); n > 0 {
					rec.WinCoarse[n-1].Busy += 1 << 32
					rec.WinCoarse[n-1].Events += 1 << 33
					cov.restoredOver += 2
				}
			}
			r := oracleShard()
			r.install(&ckpt)
			checkPublished(t, r, "installed")

			// The corrupt-checkpoint fallback: a reset between two
			// installs must leave nothing of the first behind.
			again := oracleShard()
			torn := ckpt
			torn.Swarms = append([]swarmRecord{{ID: 1 << 20, swarmCore: swarmCore{HasMeta: true, Horizon: 5, Events: 3, LastEvent: 2},
				WinFine: []winBinRecord{{Index: 2, winBin: winBin{Tracked: 7, Events: 3}}}}}, ckpt.Swarms...)
			again.install(&torn)
			if seed%2 == 0 { // with and without a view of the torn state
				again.publish()
			}
			again.reset()
			again.install(&ckpt)
			checkPublished(t, again, "reinstalled after reset")
			if got, want := viewJSON(t, again), viewJSON(t, r); got != want {
				t.Fatalf("a reset between installs left state behind\n--- install, reset, install ---\n%s\n--- install ---\n%s", got, want)
			}

			g.nonFinite = true
			drive(r, 1000, "after install")

			// Every path the mirror has must have run, on this seed.
			t.Logf("coverage %+v", cov)
			for name, n := range map[string]int{
				"fine eviction": cov.fineEvicted, "coarse landing": cov.coarseLanded,
				"eviction past retention": cov.evictedToVoid, "coarse age-out": cov.coarseAgedOut,
				"head jump past the fine ring": cov.jumpFine, "head jump past retention": cov.jumpRetention,
				"late event behind the fine window": cov.lateCoarse, "late event beyond retention": cov.lateDropped,
				"1e12 timestamp": cov.farFuture, "non-finite timestamp": cov.nonFinite,
				"restored fine bin": cov.restoredFine, "restored coarse bin": cov.restoredCoarse,
				"restored value past a slot's width": cov.restoredOver,
				"fold into a saturated coarse slot":  cov.foldOnFull,
			} {
				if n == 0 {
					t.Errorf("the op stream never drove: %s", name)
				}
			}
		})
	}
}

// TestPublishRederivesSoleExtremeHolder pins the one O(swarms) step left
// in a publish: when the only swarm holding a sketch's exact min (or
// max) moves away, the extreme is re-derived from the published values.
func TestPublishRederivesSoleExtremeHolder(t *testing.T) {
	s := oracleShard()
	seeded := func(id int, days float64) {
		s.apply(MetaOp(trace.SwarmMeta{ID: id}, 10))
		s.apply(EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: 0}))
		s.apply(EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: false, Time: days}))
	}
	seeded(1, 2) // full availability 0.2: the sole min
	seeded(2, 5)
	seeded(3, 8) // 0.8: the sole max
	// A census-only swarm is outside the study: its zero availability must
	// not come back as the min when the min is re-derived.
	s.apply(CensusOp(trace.Snapshot{Meta: trace.SwarmMeta{ID: 4}}))
	checkPublished(t, s, "three swarms")
	if got := s.snap.Load().sum.Full; got.Min() != 0.2 || got.Max() != 0.8 {
		t.Fatalf("min/max = %v/%v, want 0.2/0.8", got.Min(), got.Max())
	}

	// The min holder gains seeded time: 0.2 → 0.6, min must become 0.5.
	s.apply(EventOp(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: 3}))
	s.apply(EventOp(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: false, Time: 7}))
	checkPublished(t, s, "sole min holder moved up")
	if got := s.snap.Load().sum.Full.Min(); got != 0.5 {
		t.Fatalf("min = %v after its sole holder left, want 0.5", got)
	}

	// The max holder re-registers under a longer horizon: 0.8 → 0.4.
	s.apply(MetaOp(trace.SwarmMeta{ID: 3}, 20))
	checkPublished(t, s, "sole max holder moved down")
	if got := s.snap.Load().sum.Full.Max(); got != 0.6 {
		t.Fatalf("max = %v after its sole holder left, want 0.6", got)
	}
}
