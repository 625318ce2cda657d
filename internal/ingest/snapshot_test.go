package ingest

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSnapshotFreshAfterFlush pins the publish-before-ack contract: a
// flushed engine's lock-free snapshot is byte-identical to the barrier
// read, so in-process flush-then-read flows never see stale data.
func TestSnapshotFreshAfterFlush(t *testing.T) {
	e := New(Config{Shards: 3})
	defer e.Close()
	for _, ops := range studyOpsBySwarm(40, 3) {
		if err := e.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	snap := e.Snapshot()
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := mustJSON(snap.Summary), mustJSON(e.Summary()); got != want {
		t.Fatalf("flushed snapshot summary diverged from barrier summary\n--- snapshot ---\n%s\n--- barrier ---\n%s", got, want)
	}
	if got, want := mustJSON(snap.Window), mustJSON(e.Window()); got != want {
		t.Fatalf("flushed snapshot window diverged from barrier window\n--- snapshot ---\n%s\n--- barrier ---\n%s", got, want)
	}
	if snap.Epoch == 0 || snap.ETag == "" {
		t.Fatalf("snapshot missing validator: epoch=%d etag=%q", snap.Epoch, snap.ETag)
	}

	// Idle engine: the validator is stable and the memoized merge serves
	// repeat reads (the serving cache).
	hits := series(e, "read_cache_hits_total")
	again := e.Snapshot()
	if again.ETag != snap.ETag || again.Epoch != snap.Epoch {
		t.Fatalf("idle snapshot validator moved: %q/%d → %q/%d", snap.ETag, snap.Epoch, again.ETag, again.Epoch)
	}
	if got := series(e, "read_cache_hits_total"); got <= hits {
		t.Fatalf("repeat snapshot read did not hit the cache (hits %d → %d)", hits, got)
	}

	// New writes invalidate it.
	if err := e.Submit([]Op{EventOp(Record{SwarmID: 999999, PeerID: 1, Seed: true, Online: true})}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	moved := e.Snapshot()
	if moved.ETag == snap.ETag || moved.Epoch <= snap.Epoch {
		t.Fatalf("post-write snapshot validator did not move: %q/%d", moved.ETag, moved.Epoch)
	}
}

// TestSnapshotStalenessBound checks the reader-side freshness nudge: an
// engine left idle after unflushed writes still serves a snapshot no
// older than its max age, because a stale read pays one queue
// barrier to republish.
func TestSnapshotStalenessBound(t *testing.T) {
	e := New(Config{Shards: 1, BatchSize: 4, maxAge: 5 * time.Millisecond})
	defer e.Close()
	if err := e.Submit([]Op{EventOp(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true})}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	before := e.Snapshot()

	// A write the engine has applied but not republished (no flush, no
	// reads): after the max age the next read must surface it.
	if err := e.Submit([]Op{EventOp(Record{SwarmID: 2, PeerID: 1, Seed: true, Online: true})}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := e.Snapshot()
		if snap.Epoch > before.Epoch && snap.Summary.Swarms == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot still stale long past its max age: epoch %d, swarms %d", snap.Epoch, snap.Summary.Swarms)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotAfterClose: reads on a closed engine serve the final
// published state instead of hanging or panicking.
func TestSnapshotAfterClose(t *testing.T) {
	e := New(Config{Shards: 2})
	for _, ops := range studyOpsBySwarm(10, 5) {
		if err := e.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	want := e.Summary().Events
	e.Close()

	if got := e.Snapshot().Summary.Events; got != want {
		t.Fatalf("post-close snapshot holds %d events, want %d", got, want)
	}
	if win := e.Snapshot().Window; len(win.Fine) == 0 && len(win.Coarse) == 0 {
		t.Fatal("post-close snapshot window is empty")
	}
	if win := e.Window(); len(win.Fine) == 0 && len(win.Coarse) == 0 {
		t.Fatal("post-close barrier window is empty")
	}
	if _, ok := e.Timeline(0); !ok {
		t.Fatal("post-close timeline read failed for a known swarm")
	}
}

// TestSnapshotReadersRaceWritersAndClose is the -race stress for the
// lock-free read path: readers iterate stale-tolerant snapshots and
// windowed reads while writers hammer the queues and the engine shuts
// down mid-flight — and per-swarm reads, which run on the home shard
// until Close and in place after it, reading the swarm index the shard
// inserts into. Nothing here asserts
// freshness — the test is that every interleaving is memory-safe and
// returns a coherent view.
func TestSnapshotReadersRaceWritersAndClose(t *testing.T) {
	e := New(Config{Shards: 4, maxAge: time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ops := []Op{EventOp(Record{SwarmID: w*10000 + i%500, PeerID: 1, Seed: true, Online: i%2 == 0, Time: float64(i) / 100})}
				if err := e.Submit(ops); err != nil {
					return // engine closed under us — expected
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.Snapshot()
				if snap.Summary == nil || snap.Window == nil {
					t.Error("snapshot with nil parts")
					return
				}
				if snap.Summary.Events > 0 && snap.Summary.Swarms == 0 {
					t.Error("snapshot has events but no swarms")
					return
				}
				// Swarms a writer keeps touching, and ones not born yet.
				id := r*10000 + i%600
				if st, ok := e.Swarm(id); ok && st.Events == 0 {
					t.Errorf("swarm %d read without an event", id)
					return
				}
				if i%7 == 0 {
					e.Window()
				}
			}
		}(r)
	}

	time.Sleep(50 * time.Millisecond)
	e.Close() // Close races the readers and writers
	close(stop)
	wg.Wait()

	// The final snapshot is the drained state.
	if got, want := e.Snapshot().Summary.Events, e.Summary().Events; got != want {
		t.Fatalf("post-close snapshot events %d != barrier %d", got, want)
	}
}
