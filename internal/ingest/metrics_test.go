package ingest

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
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
