package ingest

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"swarmavail/internal/measure"
	"swarmavail/internal/trace"
)

// replayStudy archives a generated study, then streams it back through
// a fresh engine via the JSONL scanner — the full production replay
// path — with the given shard/writer parallelism.
func replayStudy(t *testing.T, traces []trace.SwarmTrace, shards, writers int) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: shards, BatchSize: 64, queueDepth: 16})
	n, err := ReplayTraces(e, trace.NewTraceScanner(&buf), writers)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(traces) {
		t.Fatalf("replayed %d swarms, want %d", n, len(traces))
	}
	return e
}

// TestOnlineMatchesOffline is the acceptance check: replaying a
// generated campaign concurrently through the sharded engine must
// reproduce the offline internal/measure answers — per-swarm
// availabilities within 1e-9 (they are computed with identical
// arithmetic) and CDF quantiles identical to the offline sketch of the
// same geometry.
func TestOnlineMatchesOffline(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(2000, 42))
	e := replayStudy(t, traces, 8, 4)
	defer e.Close()

	for _, tr := range traces {
		st, ok := e.Swarm(tr.Meta.ID)
		if !ok {
			t.Fatalf("swarm %d missing after replay", tr.Meta.ID)
		}
		wantFM, wantFull := measure.Availability(tr)
		if d := math.Abs(st.FirstMonth - wantFM); d > 1e-9 {
			t.Fatalf("swarm %d first-month: online %v offline %v (Δ %g)",
				tr.Meta.ID, st.FirstMonth, wantFM, d)
		}
		if d := math.Abs(st.Full - wantFull); d > 1e-9 {
			t.Fatalf("swarm %d full: online %v offline %v (Δ %g)",
				tr.Meta.ID, st.Full, wantFull, d)
		}
		if st.BusyPeriods != len(tr.SeedSessions) {
			t.Fatalf("swarm %d busy periods %d, want %d",
				tr.Meta.ID, st.BusyPeriods, len(tr.SeedSessions))
		}
		if st.SeedsOnline != 0 {
			t.Fatalf("swarm %d still has %d seeds online after full replay",
				tr.Meta.ID, st.SeedsOnline)
		}
	}

	sum := e.Summary()
	if sum.Swarms != len(traces) || sum.StudySwarms != len(traces) {
		t.Fatalf("summary counts %d/%d, want %d", sum.Swarms, sum.StudySwarms, len(traces))
	}
	offline := measure.Headlines(traces)
	online := sum.Headlines()
	if online.Swarms != offline.Swarms ||
		math.Abs(online.FullyAvailableFirstMonth-offline.FullyAvailableFirstMonth) > 1e-12 ||
		math.Abs(online.MostlyUnavailableOverall-offline.MostlyUnavailableOverall) > 1e-12 {
		t.Fatalf("headlines: online %+v offline %+v", online, offline)
	}

	// The sharded, merged sketches must equal the offline single-pass
	// sketches exactly — merging is lossless.
	offFM, offFull := measure.AvailabilitySketches(traces)
	for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if got, want := sum.FirstMonth.Quantile(q), offFM.Quantile(q); got != want {
			t.Fatalf("first-month q%v: online %v offline %v", q, got, want)
		}
		if got, want := sum.Full.Quantile(q), offFull.Quantile(q); got != want {
			t.Fatalf("full q%v: online %v offline %v", q, got, want)
		}
	}
	if sum.FirstMonth.N() != len(traces) || sum.Full.N() != len(traces) {
		t.Fatalf("sketch sizes %d/%d", sum.FirstMonth.N(), sum.Full.N())
	}
}

// TestShardingInvariance pins that the answer does not depend on the
// shard or writer count.
func TestShardingInvariance(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(400, 9))
	e1 := replayStudy(t, traces, 1, 1)
	defer e1.Close()
	e8 := replayStudy(t, traces, 8, 6)
	defer e8.Close()
	s1, s8 := e1.Summary(), e8.Summary()
	if s1.Swarms != s8.Swarms || s1.BusyPeriods != s8.BusyPeriods ||
		s1.FullyAvailableFirstMonth != s8.FullyAvailableFirstMonth ||
		s1.MostlyUnavailable != s8.MostlyUnavailable {
		t.Fatalf("1-shard %+v vs 8-shard %+v", s1, s8)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if s1.Full.Quantile(q) != s8.Full.Quantile(q) {
			t.Fatalf("q%v differs across shard counts", q)
		}
	}
}

// TestCensusMatchesOffline replays a census through 4 concurrent
// writers and compares the per-category counters with the offline
// bundling analysis.
func TestCensusMatchesOffline(t *testing.T) {
	snaps := trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 7, NumSwarms: 20000})
	var buf bytes.Buffer
	if err := trace.WriteSnapshots(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 8})
	defer e.Close()
	if _, err := ReplaySnapshots(e, trace.NewSnapshotScanner(&buf), 4); err != nil {
		t.Fatal(err)
	}
	sum := e.Summary()
	if sum.CensusSwarms != len(snaps) {
		t.Fatalf("census swarms %d, want %d", sum.CensusSwarms, len(snaps))
	}

	offlineExt := measure.ExtentOfBundling(snaps)
	for _, cat := range []trace.Category{trace.Music, trace.TV, trace.Books} {
		got := sum.Categories[cat].Extent(cat)
		if got != offlineExt[cat] {
			t.Fatalf("%v extent: online %+v offline %+v", cat, got, offlineExt[cat])
		}
	}

	offCmp := measure.CompareAvailability(snaps, trace.Books)
	onCmp := sum.Categories[trace.Books].Compare(trace.Books)
	if onCmp.NAll != offCmp.NAll || onCmp.NBundles != offCmp.NBundles {
		t.Fatalf("counts: online %+v offline %+v", onCmp, offCmp)
	}
	relClose := func(a, b float64) bool {
		if a == b {
			return true
		}
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !relClose(onCmp.SeedlessAll, offCmp.SeedlessAll) ||
		!relClose(onCmp.SeedlessBundles, offCmp.SeedlessBundles) ||
		!relClose(onCmp.MeanDownloadsAll, offCmp.MeanDownloadsAll) ||
		!relClose(onCmp.MeanDownloadsBundles, offCmp.MeanDownloadsBundles) {
		t.Fatalf("comparison: online %+v offline %+v", onCmp, offCmp)
	}

	// A repeated census observation must not double-count the
	// classification counters.
	before := sum.Categories[trace.Books].Swarms
	for _, s := range snaps[:100] {
		if err := e.Submit([]Op{CensusOp(s)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if after := e.Summary().Categories[trace.Books].Swarms; after != before {
		t.Fatalf("re-observed census changed bundling counters: %d → %d", before, after)
	}
}

// TestConcurrentWritersAndReaders hammers the engine from 8 writer
// goroutines while readers snapshot concurrently — the -race test for
// the concurrent hot path.
func TestConcurrentWritersAndReaders(t *testing.T) {
	e := New(Config{Shards: 4, BatchSize: 32, queueDepth: 8})
	const writers = 8
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(wi)))
			w := e.NewWriter()
			for i := 0; i < 2000; i++ {
				// Writers own disjoint swarm-id ranges so per-swarm
				// ordering holds by construction.
				id := wi*1000 + r.Intn(1000)
				tday := float64(i) / 100
				w.Observe(Record{SwarmID: id, PeerID: uint64(wi), Seed: i%3 == 0, Online: i%2 == 0, Time: tday})
			}
			w.Flush()
		}(wi)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for ri := 0; ri < 3; ri++ {
		readers.Add(1)
		go func(ri int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Summary()
				_, _ = e.Swarm(ri * 997)
				_ = e.Registry().Sum("ingest_applied_total")
			}
		}(ri)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	e.Flush()
	records, applied := series(e, "ingest_records_total"), series(e, "ingest_applied_total")
	if records != writers*2000 || applied != writers*2000 {
		t.Fatalf("records %d applied %d, want %d", records, applied, writers*2000)
	}
	e.Close()
}

// TestSeedUnionSemantics checks that overlapping distinct seeds union
// their coverage, as merged seed sessions would offline.
func TestSeedUnionSemantics(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	meta := trace.SwarmMeta{ID: 1, Category: trace.TV}
	e.Submit([]Op{MetaOp(meta, 100)})
	evs := []Record{
		{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: 0},
		{SwarmID: 1, PeerID: 2, Seed: true, Online: true, Time: 5},
		{SwarmID: 1, PeerID: 1, Seed: true, Online: false, Time: 10},
		{SwarmID: 1, PeerID: 2, Seed: true, Online: false, Time: 15},
		{SwarmID: 1, PeerID: 3, Seed: false, Online: true, Time: 15},
	}
	for _, rec := range evs {
		e.Observe(rec)
	}
	e.Flush()
	st, ok := e.Swarm(1)
	if !ok {
		t.Fatal("swarm missing")
	}
	if st.BusyPeriods != 1 {
		t.Fatalf("busy periods %d, want 1 (overlap must not split)", st.BusyPeriods)
	}
	if want := 15.0 / 100; math.Abs(st.Full-want) > 1e-12 {
		t.Fatalf("full availability %v, want %v", st.Full, want)
	}
	if want := 15.0 / 30; math.Abs(st.FirstMonth-want) > 1e-12 {
		t.Fatalf("first-month availability %v, want %v", st.FirstMonth, want)
	}
	if st.LeechersOnline != 1 || st.SeedsOnline != 0 {
		t.Fatalf("gauges %d/%d, want 0 seeds 1 leecher", st.SeedsOnline, st.LeechersOnline)
	}
}

// TestOpenIntervalLowerBound: a still-open seed session counts up to
// the last event, not beyond.
func TestOpenIntervalLowerBound(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	e.Submit([]Op{MetaOp(trace.SwarmMeta{ID: 4}, 200)})
	e.Observe(Record{SwarmID: 4, PeerID: 1, Seed: true, Online: true, Time: 10})
	e.Observe(Record{SwarmID: 4, PeerID: 9, Seed: false, Online: true, Time: 40})
	e.Flush()
	st, _ := e.Swarm(4)
	if want := 30.0 / 200; math.Abs(st.Full-want) > 1e-12 {
		t.Fatalf("open-interval full availability %v, want %v", st.Full, want)
	}
	if want := 20.0 / 30; math.Abs(st.FirstMonth-want) > 1e-12 {
		t.Fatalf("open-interval first-month availability %v, want %v", st.FirstMonth, want)
	}
	if st.SeedsOnline != 1 {
		t.Fatalf("seeds online %d", st.SeedsOnline)
	}
}

func TestUnknownSwarmAndSpuriousEvents(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	if _, ok := e.Swarm(12345); ok {
		t.Fatal("unknown swarm must report !ok")
	}
	// Offline event for a never-online seed must not corrupt state.
	e.Observe(Record{SwarmID: 8, PeerID: 1, Seed: true, Online: false, Time: 5})
	e.Observe(Record{SwarmID: 8, PeerID: 1, Seed: false, Online: false, Time: 6})
	e.Flush()
	st, ok := e.Swarm(8)
	if !ok || st.SeedsOnline != 0 || st.LeechersOnline != 0 || st.BusyPeriods != 0 {
		t.Fatalf("spurious offline corrupted state: %+v", st)
	}
	if st.Full != 0 {
		t.Fatalf("availability %v, want 0", st.Full)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	e := New(Config{Shards: 2, BatchSize: 10})
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(50, 3))
	w := e.NewWriter()
	total := 0
	for _, tr := range traces {
		ops := TraceOps(tr)
		total += len(ops)
		for _, op := range ops {
			w.Put(op)
		}
	}
	w.Flush()
	e.Flush()
	records, applied := series(e, "ingest_records_total"), series(e, "ingest_applied_total")
	if records != uint64(total) || applied != uint64(total) {
		t.Fatalf("records %d applied %d, want %d", records, applied, total)
	}
	m := e.metrics
	if mean := m.batchSize.Mean(); m.batches.Value() == 0 || mean <= 0 || mean > 10 {
		t.Fatalf("batch stats: %d batches, mean size %v", m.batches.Value(), mean)
	}
	if p50, p99 := m.batchLatency.Quantile(0.5), m.batchLatency.Quantile(0.99); p50 <= 0 || p99 < p50/2 {
		t.Fatalf("latency quantiles: p50 %v p99 %v", p50, p99)
	}
	e.Close()
}

func TestShardIndexInRange(t *testing.T) {
	for n := 1; n <= 16; n++ {
		counts := make([]int, n)
		for id := 0; id < 10000; id++ {
			i := shardIndex(id, n)
			if i < 0 || i >= n {
				t.Fatalf("shardIndex(%d, %d) = %d", id, n, i)
			}
			counts[i]++
		}
		// Sequential ids must spread: no shard may own more than twice
		// its fair share.
		for i, c := range counts {
			if n > 1 && c > 2*10000/n {
				t.Fatalf("shard %d/%d owns %d of 10000 sequential ids", i, n, c)
			}
		}
	}
}
