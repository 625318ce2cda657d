package ingest

import (
	"swarmavail/internal/measure"
	"swarmavail/internal/trace"
)

// swarmCore is the part of a swarm's state that survives a restart: the
// scalars a checkpoint carries verbatim, so a load followed by the same
// op stream produces bitwise-identical availabilities to an uninterrupted
// run. It is declared once and embedded both in the live swarmState and
// in the checkpoint's swarmRecord — the JSON tags here are the checkpoint
// format (checkpointVersion, testdata/checkpoint_v3.bin), and a field
// added here is checkpointed and restored by construction.
type swarmCore struct {
	Meta    trace.SwarmMeta `json:"meta"`
	Horizon float64         `json:"horizon,omitempty"` // monitoring horizon in days (0 until registered)
	HasMeta bool            `json:"has_meta,omitempty"`

	SeedsOnline    int     `json:"seeds_online,omitempty"`
	LeechersOnline int     `json:"leechers_online,omitempty"`
	UpSince        float64 `json:"up_since,omitempty"`     // start of the current seeded interval (SeedsOnline > 0)
	CoveredFM      float64 `json:"covered_fm,omitempty"`   // seeded time within [0, min(FirstMonthDays, horizon))
	CoveredFull    float64 `json:"covered_full,omitempty"` // seeded time within [0, horizon)
	BusyPeriods    int     `json:"busy_periods,omitempty"` // 0→1 seed transitions
	Events         uint64  `json:"events,omitempty"`
	LastEvent      float64 `json:"last_event,omitempty"`

	// Census fields (absolute gauges, not transitions).
	CensusSeeds    int  `json:"census_seeds,omitempty"`
	CensusLeechers int  `json:"census_leechers,omitempty"`
	Downloads      int  `json:"downloads,omitempty"`
	HasCensus      bool `json:"has_census,omitempty"`
}

// swarmState is the per-swarm online state owned by exactly one shard.
// It tracks the seed-coverage of two availability windows incrementally
// with the same clipping arithmetic trace.AvailabilityOver applies to
// archived sessions, so closed-interval availabilities agree bitwise
// with the offline analysis.
type swarmState struct {
	// swarmCore stays the first member, its fields in their order: the
	// apply path's offsets are then the ones the benchmark has measured.
	swarmCore

	// win is the swarm's windowed history (see window.go). It is a pure
	// function of the swarm's own event stream, which is what makes
	// clustered windowed answers merge exactly.
	win winRing

	// counted is exactly what the shard's live Summary currently counts
	// for this swarm (zero, which counts nothing, until the first publish
	// after it appeared). dirty says the swarm changed since and is
	// queued on the shard's dirty list.
	counted counted
	dirty   bool
}

// counted is one swarm's contribution to its shard's Summary, as of the
// last publish: the gauges, the event count, the two availabilities and
// the study and census memberships.
type counted struct {
	seeds, leechers, busy int
	events                uint64
	firstMonth, full      float64
	study, census         bool
}

// count derives what the Summary should count for the swarm now.
func (s *swarmState) count() counted {
	fm, full := s.availability()
	return counted{
		seeds: s.SeedsOnline, leechers: s.LeechersOnline, busy: s.BusyPeriods, events: s.Events,
		firstMonth: fm, full: full,
		// The availability study is the swarms with events or a
		// registration (a census-only swarm has neither).
		study: s.Events > 0 || s.HasMeta, census: s.HasCensus,
	}
}

// windows returns the two availability windows. Before registration the
// horizon falls back to the last event time, making the availability a
// best-effort "so far" figure.
func (s *swarmState) windows() (fm, full float64) {
	full = s.Horizon
	if !s.HasMeta {
		full = s.LastEvent
	}
	fm = measure.FirstMonthDays
	if full < fm {
		fm = full
	}
	return fm, full
}

// addCovered folds a closed seeded interval [lo, hi) into both window
// accumulators, clipping exactly as dist.AvailableFraction does.
func (s *swarmState) addCovered(lo, hi float64) {
	if lo < 0 {
		lo = 0
	}
	fmW, fullW := s.windows()
	if h := min(hi, fmW); h > lo {
		s.CoveredFM += h - lo
	}
	if h := min(hi, fullW); h > lo {
		s.CoveredFull += h - lo
	}
}

// apply processes one monitor event.
func (s *swarmState) apply(rec Record, agg *winAgg) {
	s.Events++
	if rec.Time > s.LastEvent {
		// Accrue windowed observed/seeded time over the span up to this
		// event using the seed state in effect *before* its transition.
		s.win.accrue(agg, s.LastEvent, rec.Time, s.SeedsOnline > 0)
		s.LastEvent = rec.Time
	}
	busyStart := false
	if !rec.Seed {
		if rec.Online {
			s.LeechersOnline++
		} else if s.LeechersOnline > 0 {
			s.LeechersOnline--
		}
	} else if rec.Online {
		if s.SeedsOnline == 0 {
			s.UpSince = rec.Time
			s.BusyPeriods++
			busyStart = true
		}
		s.SeedsOnline++
	} else if s.SeedsOnline > 0 { // SeedsOnline == 0: spurious offline; ignore
		s.SeedsOnline--
		if s.SeedsOnline == 0 {
			s.addCovered(s.UpSince, rec.Time)
		}
	}
	s.win.mark(agg, rec.Time, busyStart)
}

// availability returns the online first-month and whole-trace
// availability fractions. An interval still open is counted up to the
// last observed event, so mid-stream figures are monotone lower bounds
// of the final ones.
func (s *swarmState) availability() (firstMonth, full float64) {
	fmW, fullW := s.windows()
	cFM, cFull := s.CoveredFM, s.CoveredFull
	if s.SeedsOnline > 0 {
		lo := s.UpSince
		if lo < 0 {
			lo = 0
		}
		if h := min(s.LastEvent, fmW); h > lo {
			cFM += h - lo
		}
		if h := min(s.LastEvent, fullW); h > lo {
			cFull += h - lo
		}
	}
	return fraction(cFM, fmW), fraction(cFull, fullW)
}

// fraction mirrors dist.AvailableFraction's final division and clamp.
func fraction(covered, window float64) float64 {
	if window <= 0 {
		return 0
	}
	f := covered / window
	if f > 1 {
		f = 1
	}
	return f
}

// swarmRecord is the checkpoint wire form of one swarm's state: its id,
// its swarmCore verbatim, and the nonempty window-ring bins. The ring
// head is not serialized — it is recomputed from LastEvent on restore.
type swarmRecord struct {
	ID int `json:"id"`
	swarmCore
	WinFine   []winBinRecord `json:"win_fine,omitempty"`
	WinCoarse []winBinRecord `json:"win_coarse,omitempty"`
}

// record converts the state to its wire form.
func (s *swarmState) record(id int) swarmRecord {
	fine, coarse := s.win.records()
	return swarmRecord{ID: id, swarmCore: s.swarmCore, WinFine: fine, WinCoarse: coarse}
}

// state converts the wire form back to live state, seeding agg with the
// restored ring.
func (r swarmRecord) state(agg *winAgg) *swarmState {
	st := &swarmState{swarmCore: r.swarmCore}
	st.win.restore(agg, r.LastEvent, r.WinFine, r.WinCoarse, r.Events > 0)
	return st
}

// categoryRecord is the checkpoint and /v1/state wire form of one
// category's counters.
type categoryRecord struct {
	Category trace.Category `json:"category"`
	CategoryCounters
}

// stats snapshots the swarm into its exported form.
func (s *swarmState) stats() SwarmStats {
	fm, full := s.availability()
	st := SwarmStats{
		Meta:           s.Meta,
		MonitoredDays:  s.Horizon,
		Registered:     s.HasMeta,
		SeedsOnline:    s.SeedsOnline,
		LeechersOnline: s.LeechersOnline,
		BusyPeriods:    s.BusyPeriods,
		Events:         s.Events,
		LastEventDay:   s.LastEvent,
		FirstMonth:     fm,
		Full:           full,
	}
	if s.HasCensus {
		st.Census = &CensusStats{
			Seeds:     s.CensusSeeds,
			Leechers:  s.CensusLeechers,
			Downloads: s.Downloads,
		}
	}
	return st
}

// SwarmStats is the exported per-swarm snapshot served by
// /v1/swarm/{id}.
type SwarmStats struct {
	Meta           trace.SwarmMeta `json:"meta"`
	MonitoredDays  float64         `json:"monitored_days"`
	Registered     bool            `json:"registered"`
	SeedsOnline    int             `json:"seeds_online"`
	LeechersOnline int             `json:"leechers_online"`
	BusyPeriods    int             `json:"busy_periods"`
	Events         uint64          `json:"events"`
	LastEventDay   float64         `json:"last_event_day"`
	// FirstMonth and Full are the online seed-availability fractions
	// under the shared §2 definitions (measure.Availability).
	FirstMonth float64 `json:"first_month_availability"`
	Full       float64 `json:"full_availability"`
	// Census is present once a census observation arrived.
	Census *CensusStats `json:"census,omitempty"`
}

// CensusStats is the absolute-gauge census view of a swarm.
type CensusStats struct {
	Seeds     int `json:"seeds"`
	Leechers  int `json:"leechers"`
	Downloads int `json:"downloads"`
}

// CategoryCounters aggregates one content category's census: the online
// form of measure.BundlingExtent plus the seedless/demand split of
// measure.AvailabilityByBundling. Every field is an integer sum, so a
// merge is exact in any order and the bundling answers are
// byte-identical however the census was partitioned across shards and
// nodes.
type CategoryCounters struct {
	Swarms          int `json:"swarms"`
	Bundles         int `json:"bundles"`
	Collections     int `json:"collections"`
	Seedless        int `json:"seedless"`
	SeedlessBundles int `json:"seedless_bundles"`

	// Downloads and BundleDownloads sum the census download counters
	// over all swarms and over bundles; the means are derived at render
	// time.
	Downloads       downloadSum `json:"downloads"`
	BundleDownloads downloadSum `json:"bundle_downloads"`
}

// downloadSum is a summed download counter.
type downloadSum int64

// merge folds other into c.
func (c *CategoryCounters) merge(other CategoryCounters) {
	c.Swarms += other.Swarms
	c.Bundles += other.Bundles
	c.Collections += other.Collections
	c.Seedless += other.Seedless
	c.SeedlessBundles += other.SeedlessBundles
	c.Downloads += other.Downloads
	c.BundleDownloads += other.BundleDownloads
}

// observe folds one census snapshot into the counters, applying the
// paper's classifiers exactly as the offline path does.
func (c *CategoryCounters) observe(snap trace.Snapshot) {
	c.Swarms++
	bundle := measure.IsBundle(snap.Meta)
	if bundle {
		c.Bundles++
	}
	if snap.Meta.Category == trace.Books && measure.IsCollection(snap.Meta) {
		c.Collections++
	}
	if snap.Seeds == 0 {
		c.Seedless++
		if bundle {
			c.SeedlessBundles++
		}
	}
	c.Downloads += downloadSum(snap.Downloads)
	if bundle {
		c.BundleDownloads += downloadSum(snap.Downloads)
	}
}

// Extent converts the counters to measure's offline summary type.
func (c CategoryCounters) Extent(cat trace.Category) measure.BundlingExtent {
	return measure.BundlingExtent{
		Category:    cat,
		Swarms:      c.Swarms,
		Bundles:     c.Bundles,
		Collections: c.Collections,
	}
}

// Compare converts the counters to measure's availability-by-bundling
// comparison.
func (c CategoryCounters) Compare(cat trace.Category) measure.AvailabilityByBundling {
	out := measure.AvailabilityByBundling{
		Category: cat,
		NAll:     c.Swarms,
		NBundles: c.Bundles,
	}
	if c.Swarms > 0 {
		out.SeedlessAll = float64(c.Seedless) / float64(c.Swarms)
		out.MeanDownloadsAll = float64(c.Downloads) / float64(c.Swarms)
	}
	if c.Bundles > 0 {
		out.SeedlessBundles = float64(c.SeedlessBundles) / float64(c.Bundles)
		out.MeanDownloadsBundles = float64(c.BundleDownloads) / float64(c.Bundles)
	}
	return out
}
