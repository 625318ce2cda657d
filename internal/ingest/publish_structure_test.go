package ingest

import (
	"testing"
	"time"

	"swarmavail/internal/trace"
)

// TestPublishCostFollowsDirtyNotResident pins the shape of a publish by
// counts, not timings: with N swarms resident and k touched, a publish
// visits exactly k swarms, and allocates the same number of objects
// whether N is a thousand or fifty thousand.
func TestPublishCostFollowsDirtyNotResident(t *testing.T) {
	const k = 7
	touch := func(s *shard) {
		for id := 0; id < k; id++ {
			s.apply(EventOp(Record{SwarmID: id, PeerID: 2, Online: true, Time: 1.5}))
		}
	}
	var allocs []float64
	for _, n := range []int{1000, 50000} {
		s := oracleShard()
		// Resident swarms are registered, not yet observed: a ring is made
		// on a swarm's first event, so fifty thousand are cheap to hold.
		for id := 0; id < n; id++ {
			s.apply(MetaOp(trace.SwarmMeta{ID: id}, 30))
		}
		s.publish()
		if got := s.metrics.publishDirty.Sum(); got != float64(n) {
			t.Fatalf("N=%d: loading publish visited %v swarms, want %d", n, got, n)
		}
		touch(s) // grow the dirty list to k once, outside the measurement
		s.publish()

		visited := s.metrics.publishDirty.Sum()
		publishes := s.metrics.publishDirty.Count()
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			touch(s)
			s.publish()
		}))
		perPublish := (s.metrics.publishDirty.Sum() - visited) / float64(s.metrics.publishDirty.Count()-publishes)
		if perPublish != k {
			t.Fatalf("N=%d: a publish after touching %d swarms visited %v", n, k, perPublish)
		}
		if got := s.snap.Load().sum.Swarms; got != n {
			t.Fatalf("N=%d: published summary counts %d swarms", n, got)
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("publish allocates %v objects at N=1000 but %v at N=50000", allocs[0], allocs[1])
	}
}

// TestPublishAllocatesPerShard: a publish allocates the shard's new view
// and nothing per swarm, so its allocations do not follow the dirty
// count — the garbage a paced read leaves behind is a few objects per
// shard, whatever the write rate.
func TestPublishAllocatesPerShard(t *testing.T) {
	const swarms = 2000
	s := oracleShard()
	for id := 0; id < swarms; id++ {
		s.apply(MetaOp(trace.SwarmMeta{ID: id}, 60))
		s.apply(EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: float64(id%40) / 4}))
	}
	s.publish()
	allocs := func(dirty int) float64 {
		return testing.AllocsPerRun(20, func() {
			for id := 0; id < dirty; id++ {
				s.markDirty(s.swarms[id])
			}
			s.publish()
		})
	}
	one, all := allocs(1), allocs(swarms)
	t.Logf("publish allocations: %v at 1 dirty swarm, %v at %d", one, all, swarms)
	if all != one {
		t.Fatalf("publish allocates %v objects at 1 dirty swarm but %v at %d", one, all, swarms)
	}
}

// waitApplied polls until the engine has applied n ops (Submit returns
// once they are queued).
func waitApplied(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Metrics().Applied < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d ops", e.Metrics().Applied, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteOnlyEngineNeverSelfPublishes: the throttled publish is on
// demand. With SnapshotMaxAge at its minimum every batch is "due", yet a
// stream nobody reads builds no view at all; the first read afterwards
// reflects every applied op, and from then on — somebody is looking —
// the shard republishes by itself.
func TestWriteOnlyEngineNeverSelfPublishes(t *testing.T) {
	e := New(Config{Shards: 1, SnapshotMaxAge: time.Nanosecond})
	defer e.Close()
	publishes := func() uint64 { return e.metrics.publishTime.Count() }
	boot := publishes() // the empty snapshot newShard publishes

	const batches = 200
	for i := 0; i < batches; i++ {
		if err := e.Submit([]Op{EventOp(Record{SwarmID: i % 17, PeerID: 1, Seed: true, Online: i%2 == 0, Time: float64(i) / 10})}); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, e, batches)
	if got := publishes(); got != boot {
		t.Fatalf("a write-only engine published %d times over %d batches", got-boot, batches)
	}

	snap := e.Snapshot()
	if snap.Summary.Events != batches || snap.Epoch != batches {
		t.Fatalf("first read after a write-only stretch shows %d events at epoch %d, want %d", snap.Summary.Events, snap.Epoch, batches)
	}
	if got := publishes(); got != boot+1 {
		t.Fatalf("the first read cost %d publishes, want 1", got-boot)
	}

	// Somebody has loaded the snapshot now: the next batch republishes
	// unasked, once.
	if err := e.Submit([]Op{EventOp(Record{SwarmID: 1, PeerID: 9, Online: true, Time: 30})}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, e, batches+1)
	deadline := time.Now().Add(10 * time.Second)
	for publishes() != boot+2 { // applied is bumped just before the publish
		if time.Now().After(deadline) {
			t.Fatalf("a read shard did not republish after a batch (%d publishes)", publishes()-boot)
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Submit([]Op{EventOp(Record{SwarmID: 1, PeerID: 9, Online: false, Time: 31})}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, e, batches+2)
	time.Sleep(5 * time.Millisecond) // no event to wait on: this asserts an absence
	if got := publishes(); got != boot+2 {
		t.Fatalf("an unread snapshot was republished (%d publishes)", got-boot)
	}
}
