package ingest

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// TestMetricsSnapshotComplete runs a workload that exercises every
// instrument, then checks by reflection that no
// exported MetricsSnapshot field is left at its zero value. Adding a
// field to MetricsSnapshot without populating it in snapshot() fails
// here, which is the regression this guards: handlers used to copy
// fields by hand and silently skip new ones.
func TestMetricsSnapshotComplete(t *testing.T) {
	e := New(Config{Shards: 2, BatchSize: 8, QueueDepth: 1})
	defer e.Close()

	traces := trace.GenerateStudy(trace.DefaultStudyConfig(40, 3))
	var ops []Op
	for _, tr := range traces {
		ops = append(ops, TraceOps(tr)...)
	}
	if err := e.Submit(ops); err != nil {
		t.Fatal(err)
	}
	// Exercise the exactly-once path: the second submit of the same
	// (source, seq) key is a duplicate and populates Deduped.
	if applied, err := e.SubmitKeyed("metrics-test", 1, ops[:1]); err != nil || !applied {
		t.Fatalf("first keyed submit: applied=%v err=%v", applied, err)
	}
	if applied, err := e.SubmitKeyed("metrics-test", 1, ops[:1]); err != nil || applied {
		t.Fatalf("duplicate keyed submit: applied=%v err=%v", applied, err)
	}
	e.Flush()
	// Exercise the snapshot read cache: back-to-back lock-free reads of
	// a quiet engine serve the memoized merge, populating ReadCacheHits.
	e.Snapshot()
	e.Snapshot()

	snap := e.Metrics()
	v := reflect.ValueOf(snap)
	typ := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("MetricsSnapshot.%s is zero after a full-coverage workload — snapshot() missed it", typ.Field(i).Name)
		}
	}
	// ShardDepths may legitimately hold zeros but must cover every shard.
	if len(snap.ShardDepths) != e.Shards() || len(snap.ShardApplied) != e.Shards() {
		t.Errorf("per-shard slices sized %d/%d, want %d", len(snap.ShardDepths), len(snap.ShardApplied), e.Shards())
	}
}

// TestShardCountersConcurrent drives parallel writers into a sharded
// engine on a shared registry and checks that the per-shard applied
// counters, their registry-wide sum, and the snapshot all agree with
// the number of ops submitted. Run under -race.
func TestShardCountersConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Shards: 4, BatchSize: 16, Metrics: reg})
	defer e.Close()

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.NewWriter()
			for j := 0; j < perWriter; j++ {
				w.Observe(Record{SwarmID: wi*perWriter + j, PeerID: 1, Seed: true, Online: true})
			}
			if err := w.Flush(); err != nil {
				t.Error(err)
			}
		}(wi)
	}
	wg.Wait()
	e.Flush()

	const want = writers * perWriter
	snap := e.Metrics()
	if snap.Applied != want || snap.Records != want {
		t.Fatalf("snapshot applied %d records %d, want %d", snap.Applied, snap.Records, want)
	}
	var perShard uint64
	for _, n := range snap.ShardApplied {
		perShard += n
	}
	if perShard != want {
		t.Fatalf("per-shard applied sums to %d, want %d", perShard, want)
	}
	if got := reg.Sum("ingest_applied_total"); got != want {
		t.Fatalf("registry sum = %v, want %d", got, want)
	}
	if v, ok := reg.Value("ingest_records_total"); !ok || v != want {
		t.Fatalf("ingest_records_total = %v ok=%v", v, ok)
	}
	// Queue-depth gauges exist for every shard and read 0 after Flush.
	for i := 0; i < e.Shards(); i++ {
		if _, ok := reg.Value("ingest_shard_queue_depth", obs.L("shard", strconv.Itoa(i))); !ok {
			t.Errorf("missing queue-depth gauge for shard %d", i)
		}
	}
}

// TestSnapshotMetricsFollowReaders covers the publish instruments and
// the staleness gauge's on-demand rule: a snapshot nobody has loaded
// since it was published is nobody's stale read, so a bulk load reports
// age 0 however far behind the view is.
func TestSnapshotMetricsFollowReaders(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Shards: 1, Metrics: reg, SnapshotMaxAge: time.Hour})
	defer e.Close()
	age := func() float64 {
		v, ok := reg.Value("ingest_snapshot_age_seconds")
		if !ok {
			t.Fatal("ingest_snapshot_age_seconds is not registered")
		}
		return v
	}
	build := reg.Histogram("ingest_snapshot_build_seconds", obs.LatencyBuckets)
	dirty := reg.Histogram("ingest_snapshot_dirty_swarms", obs.SizeBuckets)
	boot := build.Count()

	const swarms = 25
	var ops []Op
	for id := 0; id < swarms; id++ {
		ops = append(ops, EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: 1}))
	}
	if err := e.Submit(ops); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, e, swarms)
	time.Sleep(2 * time.Millisecond)
	if got := age(); got != 0 {
		t.Fatalf("age = %v with the view behind but never read, want 0", got)
	}

	// A reader loads the (still stale, within SnapshotMaxAge) snapshot:
	// now somebody is being served it, and its age counts.
	if got := e.Snapshot().Summary.Events; got != 0 {
		t.Fatalf("snapshot within SnapshotMaxAge shows %d events, want the boot view", got)
	}
	if got := age(); got <= 0 {
		t.Fatalf("age = %v with a reader holding a stale snapshot, want > 0", got)
	}

	e.Flush()
	if got := age(); got != 0 {
		t.Fatalf("age = %v right after a flush, want 0", got)
	}
	if got := build.Count() - boot; got != 1 {
		t.Fatalf("ingest_snapshot_build_seconds counted %d publishes, want 1", got)
	}
	if got := dirty.Sum(); got != swarms {
		t.Fatalf("ingest_snapshot_dirty_swarms sums to %v, want %d", got, swarms)
	}
}

// TestWALAppendedBytes: wal_appended_bytes_total counts the payload
// bytes of every journaled frame — the encoder's output for an
// in-process batch, a stream's frame verbatim — and nothing for a
// duplicate or a refused frame, so with wal_appended_total it reads the
// journal's bytes per op off /metrics.
func TestWALAppendedBytes(t *testing.T) {
	reg := obs.NewRegistry()
	e, _, err := OpenDurable(Config{Shards: 2, Metrics: reg}, DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bytesTotal := func() uint64 {
		v, ok := reg.Value("wal_appended_bytes_total")
		if !ok {
			t.Fatal("wal_appended_bytes_total is not registered")
		}
		return uint64(v)
	}

	ops := studyOps(5, 3)
	plain, err := EncodeFrame(nil, "", 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(ops); err != nil {
		t.Fatal(err)
	}
	if got := bytesTotal(); got != uint64(len(plain)) {
		t.Fatalf("after Submit: %d bytes, want the %d-byte frame", got, len(plain))
	}
	keyed := mustEncodeFrame(t, "mon-bytes", 1, ops)
	for i := 0; i < 2; i++ { // the second is a duplicate: journaled once
		if _, err := e.SubmitFrame(keyed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SubmitFrame(withLastTime(keyed, math.NaN())); err == nil {
		t.Fatal("a frame holding a NaN time was accepted")
	}
	want := uint64(len(plain) + len(keyed))
	if got := bytesTotal(); got != want {
		t.Fatalf("after SubmitFrame: %d bytes, want %d", got, want)
	}
	if v, _ := reg.Value("wal_appended_total"); uint64(v) != uint64(2*len(ops)) {
		t.Fatalf("wal_appended_total = %v, want %d", v, 2*len(ops))
	}
	t.Logf("%.2f journaled bytes per op", float64(want)/float64(2*len(ops)))
}
