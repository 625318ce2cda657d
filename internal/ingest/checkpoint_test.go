package ingest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// goldenCheckpointSeq is the WAL sequence testdata/checkpoint_v3.bin was
// written at (its header carries it, and a file loads only under the
// matching name).
const goldenCheckpointSeq = 5

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointGoldenLoadsAndReencodes pins the checkpoint format by a
// file rather than by the structs that write it. testdata/checkpoint_v3.bin
// was written by the commit before swarmCore existed (one shard, seq 5):
// a registration-only swarm, a registered swarm with a closed and a
// still-open seeded interval, an unregistered one whose first bins have
// been evicted to the coarse ring and which also has a census row, a
// swarm seeded throughout its horizon, two census-only swarms, and one
// dedup source with four keys seen — every swarmCore field and every bin
// field nonzero somewhere. The file must load, serve the answers recorded
// beside it, and re-encode to itself byte for byte; a deliberate format
// change regenerates all three files together with checkpointVersion.
func TestCheckpointGoldenLoadsAndReencodes(t *testing.T) {
	golden := readTestdata(t, "checkpoint_v3.bin")
	dir := t.TempDir()
	if err := os.WriteFile(CheckpointPath(dir, goldenCheckpointSeq), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	e, rs, err := OpenDurable(Config{Shards: 1}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(rs.SkippedCheckpoints) > 0 || rs.CheckpointSeq != goldenCheckpointSeq || rs.CheckpointSwarms != 6 {
		t.Fatalf("golden checkpoint did not load whole: %+v", rs)
	}

	mux := http.NewServeMux()
	RegisterReadHandlers(mux, e)
	for path, name := range map[string]string{
		"/v1/state":        "checkpoint_v3_state.json",
		"/v1/window/state": "checkpoint_v3_window.json",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if want := readTestdata(t, name); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s after loading the golden checkpoint: %d\n--- got ---\n%s\n--- want (%s) ---\n%s",
				path, rec.Code, rec.Body, name, want)
		}
	}

	snaps := make([]*shardSnapshot, len(e.shards))
	e.onShards(e.shards, func(s *shard) { snaps[s.idx] = s.snapshot() })
	out := t.TempDir()
	if _, err := writeCheckpoint(out, goldenCheckpointSeq, snaps, e.dedup.records()); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(CheckpointPath(out, goldenCheckpointSeq))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatalf("the loaded state re-encodes to different bytes: the checkpoint format moved\n--- got ---\n%q\n--- want ---\n%q", again, golden)
	}
}

// checkpointFixture opens a durable two-shard engine over a fresh
// directory and feeds it a few hundred swarms' registrations and events
// and a census, in fixed batches — so two fixtures hold the same state
// behind the same WAL sequence.
func checkpointFixture(t *testing.T) (*Engine, string) {
	t.Helper()
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ops := studyOps(300, 17)
	for _, sn := range trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 19, NumSwarms: 200}) {
		ops = append(ops, CensusOp(sn))
	}
	for i := 0; i < len(ops); i += 500 {
		if applied, err := e.SubmitKeyed("fixture", uint64(i/500+1), ops[i:min(i+500, len(ops))]); err != nil || !applied {
			t.Fatalf("batch at op %d: applied=%v err=%v", i, applied, err)
		}
	}
	return e, dir
}

// checkpointBytes checkpoints e and returns the file written.
func checkpointBytes(t *testing.T, e *Engine, dir string) []byte {
	t.Helper()
	cs, err := e.Checkpoint()
	if err != nil || cs.Skipped {
		t.Fatalf("checkpoint: %+v, %v", cs, err)
	}
	b, err := os.ReadFile(CheckpointPath(dir, cs.Seq))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointBytesReproducible pins that a checkpoint file is a
// function of the state it covers: two engines that applied the same
// stream write the same bytes (swarms by id, categories by category,
// dedup sources by name), so a follower's file can be compared with its
// leader's.
func TestCheckpointBytesReproducible(t *testing.T) {
	a, dirA := checkpointFixture(t)
	b, dirB := checkpointFixture(t)
	if x, y := checkpointBytes(t, a, dirA), checkpointBytes(t, b, dirB); !bytes.Equal(x, y) {
		i := 0
		for i < min(len(x), len(y)) && x[i] == y[i] {
			i++
		}
		t.Fatalf("two checkpoints of one state differ from byte %d (%d and %d bytes)", i, len(x), len(y))
	}
}

// TestClosedEngineAnswersInPlace pins onShards' one fallback: everything
// that runs on a shard — the two per-swarm reads (Timeline, Swarm), a
// checkpoint capture — answers after Close exactly what it answers on a
// live engine holding the same state.
func TestClosedEngineAnswersInPlace(t *testing.T) {
	const swarms = 300 // the fixture numbers its swarms 0..n-1
	marshal := func(t *testing.T, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	live, liveDir := checkpointFixture(t)
	closed, closedDir := checkpointFixture(t)
	closed.Close()
	for _, row := range []struct {
		name string
		ask  func(t *testing.T, e *Engine, dir string) []byte
	}{
		{"Timeline", func(t *testing.T, e *Engine, _ string) []byte {
			var all []*WindowState
			for id := -1; id <= swarms; id++ { // both ends are unknown swarms
				w, ok := e.Timeline(id)
				if ok != (w != nil) {
					t.Fatalf("Timeline(%d) = %v, %v", id, w, ok)
				}
				all = append(all, w)
			}
			return marshal(t, all)
		}},
		{"Swarm", func(t *testing.T, e *Engine, _ string) []byte {
			var all []SwarmStats
			for id := -1; id <= swarms; id++ {
				st, ok := e.Swarm(id)
				if ok != (id >= 0 && id < swarms) {
					t.Fatalf("Swarm(%d) ok = %v", id, ok)
				}
				all = append(all, st)
			}
			return marshal(t, all)
		}},
		{"Checkpoint", checkpointBytes},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := row.ask(t, live, liveDir)
			if got := row.ask(t, closed, closedDir); !bytes.Equal(got, want) {
				t.Fatalf("answer after Close differs from the live engine's (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
