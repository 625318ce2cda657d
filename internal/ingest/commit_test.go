package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/wal"
)

// commitOrderRounds is how many fresh durable engines each commit-order
// test drives. A writer's journal append and its shard sends are a few
// instructions apart; with the two steps unordered across writers, about
// 7% of rounds applied two writers' events to the shards in the opposite
// order from the journal's, so 80 rounds catch it in all but ≈0.5% of
// runs.
const commitOrderRounds = 80

// swarmView is what a commit-order round compares between the live
// engine and the one reopened from its directory: the contended swarm's
// stats and the /v1/state body.
func swarmView(t *testing.T, e *Engine, id int) (stats, state []byte) {
	t.Helper()
	st, ok := e.Swarm(id)
	if !ok {
		t.Fatalf("swarm %d unknown", id)
	}
	stats, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return stats, stateBytes(e)
}

// runCommitOrderRounds opens a durable engine per round, lets write feed
// it from several writers at once, and requires the engine reopened from
// the same directory to serve what the live one served. write returns
// once everything it sent is acknowledged.
func runCommitOrderRounds(t *testing.T, write func(t *testing.T, e *Engine)) {
	diverged := 0
	for round := 0; round < commitOrderRounds; round++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprint(round))
		e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		write(t, e)
		liveStats, liveState := swarmView(t, e, 1)
		e.Close()

		r, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		gotStats, gotState := swarmView(t, r, 1)
		r.Close()
		if !bytes.Equal(gotStats, liveStats) || !bytes.Equal(gotState, liveState) {
			if diverged == 0 {
				t.Errorf("round %d: the reopened engine differs from the live one\nlive swarm:      %s\nrecovered swarm: %s", round, liveStats, gotStats)
			}
			diverged++
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d rounds recovered a state the live engine never served", diverged, commitOrderRounds)
	}
}

// toggle is writer w's k-th event on the contended swarm 1: its own peer
// alternating seed on and off, stamped from a clock all writers share.
func toggle(clock *atomic.Int64, w, k int) Record {
	return Record{SwarmID: 1, PeerID: uint64(w + 1), Seed: true, Online: k%2 == 0, Time: float64(clock.Add(1)) / 100}
}

// TestCommitOrderKeyedWriters: four writers make one-event SubmitKeyed
// calls on one swarm of one durable engine at once. Recovery replays the
// journal in its order, so the live shards must have applied the events
// in that order too.
func TestCommitOrderKeyedWriters(t *testing.T) {
	const writers, calls = 4, 300
	runCommitOrderRounds(t, func(t *testing.T, e *Engine) {
		var clock atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := fmt.Sprintf("writer-%d", w)
				for k := 0; k < calls; k++ {
					if _, err := e.SubmitKeyed(src, uint64(k+1), []Op{EventOp(toggle(&clock, w, k))}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestCommitOrderStreamConnections is the same property through two
// StreamServer connections, the path a monitor fleet pointed straight at
// a node takes. A window of one frame makes every event its own commit,
// concurrent with the other connection's.
func TestCommitOrderStreamConnections(t *testing.T) {
	const writers, events = 2, 300
	runCommitOrderRounds(t, func(t *testing.T, e *Engine) {
		addr, stop := serveStream(t, e)
		defer stop()
		var clock atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewStreamClient(StreamClientConfig{Addr: addr, Source: fmt.Sprintf("mon-%d", w), BatchSize: 1, Window: 1})
				defer c.Abandon()
				for k := 0; k < events; k++ {
					if err := c.Observe(toggle(&clock, w, k)); err != nil {
						errs <- err
						return
					}
				}
				if err := c.Flush(); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestCheckpointUnderLoad holds a checkpoint taken while writers run to
// what a checkpoint promises: the engine reopened from the newest
// checkpoint plus the WAL tail behind it serves exactly the live state,
// and every key the writers used is still remembered.
func TestCheckpointUnderLoad(t *testing.T) {
	const writers, swarmsPerWriter = 3, 50
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 4}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	lastSeq := make([]uint64, writers)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := fmt.Sprintf("writer-%d", w)
			// Each writer owns its swarms, so the checkpoint is the only
			// thing the writers share.
			for k := 0; !stop.Load() || k < 200; k++ {
				id := w*swarmsPerWriter + k%swarmsPerWriter
				op := EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: k/swarmsPerWriter%2 == 0, Time: float64(k)})
				if _, err := e.SubmitKeyed(src, uint64(k+1), []Op{op}); err != nil {
					errs <- err
					return
				}
				lastSeq[w] = uint64(k + 1)
			}
		}()
	}
	var taken int
	for i := 0; i < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		cs, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !cs.Skipped {
			taken++
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if taken == 0 {
		t.Fatal("every checkpoint was skipped")
	}
	// One more key per writer after the last checkpoint, so the tail is
	// never empty.
	for w := 0; w < writers; w++ {
		lastSeq[w]++
		op := EventOp(Record{SwarmID: w * swarmsPerWriter, PeerID: 2, Online: true, Time: 1e6})
		if _, err := e.SubmitKeyed(fmt.Sprintf("writer-%d", w), lastSeq[w], []Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	live := stateBytes(e)
	e.Close()

	r, rs, err := OpenDurable(Config{Shards: 4}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rs.CheckpointSeq == 0 || rs.ReplayedFrames == 0 {
		t.Fatalf("recovery did not combine a checkpoint with a tail: %+v", rs)
	}
	if got := stateBytes(r); !bytes.Equal(got, live) {
		t.Fatalf("checkpoint %d plus %d replayed frames differ from the live state\nrecovered: %s\nlive:      %s", rs.CheckpointSeq, rs.ReplayedFrames, got, live)
	}
	for w := 0; w < writers; w++ {
		for _, seq := range []uint64{1, lastSeq[w] / 2, lastSeq[w]} {
			applied, err := r.SubmitKeyed(fmt.Sprintf("writer-%d", w), seq, []Op{EventOp(Record{SwarmID: 7, Time: 1})})
			if err != nil || applied {
				t.Fatalf("writer %d key %d after recovery: applied=%v err=%v, want a duplicate", w, seq, applied, err)
			}
		}
	}
}

// TestCheckpointReleasesCommitLockForWrite: a checkpoint of a node with
// 20 000 swarms holds the commit lock for its capture only. A submit
// issued once the file is being written (its temporary file exists) is
// acknowledged before the checkpoint returns, and the longest submit
// during the checkpoint is logged beside the checkpoint's duration.
func TestCheckpointReleasesCommitLockForWrite(t *testing.T) {
	const swarms = 20_000
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ops := make([]Op, 0, 2*swarms)
	for id := 0; id < swarms; id++ {
		ops = append(ops,
			EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: float64(id % 30)}),
			EventOp(Record{SwarmID: id, PeerID: 1, Seed: true, Online: false, Time: float64(id%30) + 2.5}))
	}
	if err := e.Submit(ops); err != nil {
		t.Fatal(err)
	}

	seq := uint64(0)
	submit := func() (time.Duration, error) {
		seq++
		start := time.Now()
		_, err := e.SubmitKeyed("probe", seq, []Op{EventOp(Record{SwarmID: int(seq % swarms), PeerID: 2, Time: 40})})
		return time.Since(start), err
	}
	// A checkpoint the probe may miss (it finished before the probe saw
	// its temporary file) is retried; a refused probe fails at once.
attempts:
	for attempt := 1; ; attempt++ {
		if _, err := submit(); err != nil { // something new to checkpoint
			t.Fatal(err)
		}
		done := make(chan CheckpointStats, 1)
		go func() {
			cs, err := e.Checkpoint()
			if err != nil {
				t.Error(err)
			}
			done <- cs
		}()
		for !tempFilePresent(t, dir) {
			select {
			case <-done:
				if attempt == 5 {
					t.Fatal("five checkpoints finished before their temporary file was seen")
				}
				continue attempts
			case <-time.After(100 * time.Microsecond):
			}
		}
		var longest time.Duration
		for n := 1; ; n++ {
			lat, err := submit()
			if err != nil {
				t.Fatal(err)
			}
			longest = max(longest, lat)
			select {
			case cs := <-done:
				t.Logf("checkpoint of %d swarms took %v; the longest of %d submits issued while its file was written took %v", cs.Swarms, cs.Duration, n, longest)
				if n == 1 {
					t.Fatal("the first submit issued after the capture was acknowledged only with the checkpoint")
				}
				return
			default:
			}
		}
	}
}

// tempFilePresent reports whether dir holds a checkpoint being written.
func tempFilePresent(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "checkpoint-") && strings.HasSuffix(ent.Name(), ".tmp") {
			return true
		}
	}
	return false
}
