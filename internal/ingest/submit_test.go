package ingest

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// stateBytes renders the engine's full mergeable state exactly as
// GET /v1/state?consistent=1 serves it.
func stateBytes(e *Engine) []byte {
	rec := httptest.NewRecorder()
	WriteState(rec, e.Summary())
	return rec.Body.Bytes()
}

// TestSubmitPathsAgree pins the write-side collapse: every public way
// in — Submit, SubmitKeyed, SubmitFrame (plain and keyed) and a Writer
// — is an adapter over the one submit core, so the same op stream must
// leave byte-identical state on a memory-only and on a durable engine,
// a replayed key must be deduplicated identically by both keyed
// adapters, and a durable engine must reopen to the same state with the
// key still remembered. The paths are rows; the last one hands the core
// the frames sixteen to a group, as the stream server does, and on a
// durable engine must journal each group with a single append.
func TestSubmitPathsAgree(t *testing.T) {
	ops := studyOps(60, 21)
	for _, sn := range trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 5, NumSwarms: 40}) {
		ops = append(ops, CensusOp(sn))
	}
	const perBatch = 97 // straddles shards and swarms
	var batches [][]Op
	for i := 0; i < len(ops); i += perBatch {
		batches = append(batches, ops[i:min(i+perBatch, len(ops))])
	}
	last := batches[len(batches)-1]

	ref := New(Config{Shards: 1}) // the merge algebra is exact, so shard count cannot show
	if err := ref.Submit(ops); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(ref)
	ref.Close()

	feedFrame := func(e *Engine, seq uint64, ops []Op) (bool, error) {
		return e.SubmitFrame(mustEncodeFrame(t, "src", seq, ops))
	}
	const groupSize = 16
	paths := []struct {
		name  string
		keyed bool
		feed  func(e *Engine, seq uint64, ops []Op) (applied bool, err error)
		// group, when non-zero, feeds the batches that many frames to a
		// submit group instead of one feed call each.
		group int
	}{
		{"Submit", false, func(e *Engine, _ uint64, ops []Op) (bool, error) {
			return true, e.Submit(ops)
		}, 0},
		{"SubmitKeyed", true, func(e *Engine, seq uint64, ops []Op) (bool, error) {
			return e.SubmitKeyed("src", seq, ops)
		}, 0},
		{"SubmitFrame/plain", false, func(e *Engine, _ uint64, ops []Op) (bool, error) {
			return e.SubmitFrame(mustEncodeFrame(t, "", 0, ops))
		}, 0},
		{name: "SubmitFrame/keyed", keyed: true, feed: feedFrame},
		{"Writer", false, func(e *Engine, _ uint64, ops []Op) (bool, error) {
			w := e.NewWriter()
			for _, op := range ops {
				if err := w.Put(op); err != nil {
					return false, err
				}
			}
			return true, w.Flush()
		}, 0},
		{name: "frames as one group", keyed: true, feed: feedFrame, group: groupSize},
	}
	for _, durable := range []bool{false, true} {
		for _, p := range paths {
			name := p.name + "/memory"
			if durable {
				name = p.name + "/durable"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Shards: 3, BatchSize: 32}
				dir := t.TempDir()
				open := func() *Engine {
					if !durable {
						return New(cfg)
					}
					e, _, err := OpenDurable(cfg, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				// replay retries the last batch under its original key and
				// returns how many ops the engine deduplicated.
				replay := func(e *Engine) uint64 {
					before := e.Metrics().Deduped
					applied, err := p.feed(e, uint64(len(batches)), last)
					if err != nil || applied {
						t.Fatalf("replayed key: applied=%v err=%v, want a deduplicated ack", applied, err)
					}
					return e.Metrics().Deduped - before
				}

				e := open()
				// feedAll sends every batch: one feed call each, or p.group
				// frames to a submit group.
				feedAll := func() {
					if p.group == 0 {
						for i, b := range batches {
							if applied, err := p.feed(e, uint64(i+1), b); err != nil || !applied {
								t.Fatalf("batch %d: applied=%v err=%v", i, applied, err)
							}
						}
						return
					}
					for i := 0; i < len(batches); i += p.group {
						var group []batch
						for k := i; k < min(i+p.group, len(batches)); k++ {
							group = append(group, batch{wire: mustEncodeFrame(t, "src", uint64(k+1), batches[k])})
						}
						if n, err := e.submit(group); err != nil || n != len(group) {
							t.Fatalf("group at batch %d: accepted %d of %d, err=%v", i, n, len(group), err)
						}
						for k := range group {
							if !group[k].applied {
								t.Fatalf("batch %d of a fresh group reported as a duplicate", i+k)
							}
						}
					}
				}
				feedAll()
				if durable && p.group > 0 {
					appends := e.Registry().Histogram("wal_append_frames", nil)
					if want := uint64((len(batches) + p.group - 1) / p.group); appends.Count() != want || appends.Sum() != float64(len(batches)) {
						t.Fatalf("%d frames journaled by %d appends (%v frames), want %d appends",
							len(batches), appends.Count(), appends.Sum(), want)
					}
				}
				if p.keyed {
					if got := replay(e); got != uint64(len(last)) {
						t.Fatalf("ingest_deduped_total grew by %d on a replayed key, want %d", got, len(last))
					}
				}
				if got := stateBytes(e); !bytes.Equal(got, want) {
					t.Fatalf("state diverged from the reference\ngot:  %s\nwant: %s", got, want)
				}
				if got := e.Metrics().Records; got != uint64(len(ops)) {
					t.Fatalf("ingest_records_total = %d, want %d", got, len(ops))
				}
				e.Close()
				if !durable {
					return
				}

				e2 := open()
				defer e2.Close()
				if got := stateBytes(e2); !bytes.Equal(got, want) {
					t.Fatalf("state diverged after reopen\ngot:  %s\nwant: %s", got, want)
				}
				if p.keyed {
					if got := replay(e2); got != uint64(len(last)) {
						t.Fatalf("reopened engine deduplicated %d ops of a replayed key, want %d", got, len(last))
					}
				}
			})
		}
	}
}
