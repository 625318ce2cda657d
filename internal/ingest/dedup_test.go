package ingest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"swarmavail/internal/wal"
)

func mkEventOps(swarmBase, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = EventOp(Record{SwarmID: swarmBase + i%7, PeerID: uint64(i + 1), Seed: i%2 == 0, Online: true, Time: float64(i)})
	}
	return ops
}

// TestSubmitKeyedDedup checks the in-memory exactly-once semantics:
// first application applies, any retry of the key acks without
// re-applying, out-of-order first attempts are not misread as
// duplicates, and an empty source degrades to plain Submit.
func TestSubmitKeyedDedup(t *testing.T) {
	e := New(Config{Shards: 2, BatchSize: 8})
	defer e.Close()

	ops := mkEventOps(0, 10)
	if applied, err := e.SubmitKeyed("mon-a", 1, ops); err != nil || !applied {
		t.Fatalf("first submit: applied=%v err=%v", applied, err)
	}
	if applied, err := e.SubmitKeyed("mon-a", 1, ops); err != nil || applied {
		t.Fatalf("retry: applied=%v err=%v", applied, err)
	}
	// Out of order within the window: seq 5 before 2..4.
	if applied, err := e.SubmitKeyed("mon-a", 5, ops); err != nil || !applied {
		t.Fatalf("seq 5: applied=%v err=%v", applied, err)
	}
	if applied, err := e.SubmitKeyed("mon-a", 2, ops); err != nil || !applied {
		t.Fatalf("late seq 2: applied=%v err=%v", applied, err)
	}
	// Sources are independent namespaces.
	if applied, err := e.SubmitKeyed("mon-b", 1, ops); err != nil || !applied {
		t.Fatalf("other source seq 1: applied=%v err=%v", applied, err)
	}
	e.Flush()

	const wantApplied = 4 * 10
	if n := series(e, "ingest_applied_total"); n != wantApplied {
		t.Fatalf("applied %d ops, want %d", n, wantApplied)
	}
	if n := series(e, "ingest_deduped_total"); n != 10 {
		t.Fatalf("deduped %d ops, want 10", n)
	}

	// Empty source: at-least-once Submit, never deduplicated.
	if applied, err := e.SubmitKeyed("", 1, ops); err != nil || !applied {
		t.Fatalf("unkeyed: applied=%v err=%v", applied, err)
	}
	if applied, err := e.SubmitKeyed("", 1, ops); err != nil || !applied {
		t.Fatalf("unkeyed repeat: applied=%v err=%v", applied, err)
	}
}

// TestSubmitKeyedConcurrentRetries races N goroutines pushing the same
// key; exactly one must apply. Run under -race.
func TestSubmitKeyedConcurrentRetries(t *testing.T) {
	e := New(Config{Shards: 4, BatchSize: 8})
	defer e.Close()
	ops := mkEventOps(0, 16)

	const racers = 16
	var wg sync.WaitGroup
	applied := make([]bool, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, err := e.SubmitKeyed("racer", 7, ops)
			if err != nil {
				t.Error(err)
			}
			applied[i] = ok
		}(i)
	}
	wg.Wait()
	e.Flush()
	wins := 0
	for _, ok := range applied {
		if ok {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d racers applied the batch, want exactly 1", wins)
	}
	if n := series(e, "ingest_applied_total"); n != uint64(len(ops)) {
		t.Fatalf("applied %d ops, want %d", n, len(ops))
	}
}

// TestSourceWindowEviction drives one window far past the tracked span
// and checks both halves of the floor rule: evicted sequences still
// read as observed, and the seen map stays bounded.
func TestSourceWindowEviction(t *testing.T) {
	w := &sourceWindow{}
	const total = 5 * dedupWindowSize
	for seq := uint64(1); seq <= total; seq++ {
		if w.observed(seq) {
			t.Fatalf("seq %d observed before mark", seq)
		}
		w.mark(seq)
	}
	for _, seq := range []uint64{1, dedupWindowSize, total - dedupWindowSize, total} {
		if !w.observed(seq) {
			t.Fatalf("seq %d not observed after marking 1..%d", seq, total)
		}
	}
	if len(w.seen) >= 2*dedupWindowSize+1 {
		t.Fatalf("seen map grew to %d entries; eviction is not bounding it", len(w.seen))
	}
}

// TestOpsCodecKeyedRoundTrip exercises the v2 keyed frame: the key and
// every op survive the round trip, and v1 frames still decode with an
// empty key.
func TestOpsCodecKeyedRoundTrip(t *testing.T) {
	ops := mkEventOps(3, 9)
	frame, err := encodeKeyedOps(nil, "monitor-7", 42, ops)
	if err != nil {
		t.Fatal(err)
	}
	source, seq, got, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if source != "monitor-7" || seq != 42 {
		t.Fatalf("key round-tripped as (%q, %d)", source, seq)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].rec != ops[i].rec {
			t.Fatalf("op %d: %+v != %+v", i, got[i].rec, ops[i].rec)
		}
	}

	plain, err := encodeOps(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	source, seq, got, err = decodeFrame(plain)
	if err != nil {
		t.Fatal(err)
	}
	if source != "" || seq != 0 || len(got) != len(ops) {
		t.Fatalf("v1 frame decoded as (%q, %d, %d ops)", source, seq, len(got))
	}

	if _, err := encodeKeyedOps(nil, "", 1, ops); err == nil {
		t.Fatal("empty source encoded")
	}
	long := make([]byte, maxSourceLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := encodeKeyedOps(nil, string(long), 1, ops); err == nil {
		t.Fatal("oversized source encoded")
	}
}

// TestDecodeOpsKeyedRejectsGarbage: decodeFrame is total over corrupt
// keyed headers.
func TestDecodeOpsKeyedRejectsGarbage(t *testing.T) {
	valid, err := encodeKeyedOps(nil, "src", 9, mkEventOps(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":                 nil,
		"bare version":          {2},
		"short header":          {2, 3, 0},
		"zero source len":       {2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		"oversized source len":  {2, 0xff, 0xff, 'x'},
		"truncated in source":   valid[:4],
		"truncated in seq":      valid[:3+3+4],
		"truncated ops payload": valid[:len(valid)-1],
	}
	for name, data := range cases {
		if _, _, _, err := decodeFrame(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDurableKeyedDedupSurvivesRestart: a keyed batch journaled before
// a crash must still be recognised as a duplicate after recovery —
// the WAL replay rebuilds the window — and the recovered state equals
// a reference engine that saw each batch exactly once.
func TestDurableKeyedDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 3}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]Op, 5)
	for i := range batches {
		batches[i] = mkEventOps(i*10, 20)
		if applied, kerr := e.SubmitKeyed("campaign", uint64(i+1), batches[i]); kerr != nil || !applied {
			t.Fatalf("batch %d: applied=%v err=%v", i, applied, kerr)
		}
	}
	// A lost-ack retry before the crash.
	if applied, kerr := e.SubmitKeyed("campaign", 3, batches[2]); kerr != nil || applied {
		t.Fatalf("pre-crash retry: applied=%v err=%v", applied, kerr)
	}
	e.Close()

	e2, rs, err := OpenDurable(Config{Shards: 3}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rs.ReplayedFrames == 0 {
		t.Fatalf("nothing replayed: %+v", rs)
	}
	// Retries of every pre-crash batch are still duplicates.
	for i := range batches {
		if applied, kerr := e2.SubmitKeyed("campaign", uint64(i+1), batches[i]); kerr != nil || applied {
			t.Fatalf("post-recovery retry of batch %d: applied=%v err=%v", i, applied, kerr)
		}
	}
	if n := series(e2, "ingest_deduped_total"); n != 5*20 {
		t.Fatalf("deduped %d ops post-recovery, want %d", n, 5*20)
	}

	ref := New(Config{Shards: 3})
	defer ref.Close()
	for _, b := range batches {
		if err := ref.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := summaryFingerprint(t, e2.Summary()), summaryFingerprint(t, ref.Summary()); !bytes.Equal(got, want) {
		t.Fatalf("recovered state diverged from exactly-once reference\ngot:  %s\nwant: %s", got, want)
	}
}

// TestCheckpointCarriesDedupWindows: windows survive through a
// checkpoint that truncates the keyed WAL frames away, and through a
// checkpoint-plus-tail recovery spanning both.
func TestCheckpointCarriesDedupWindows(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	pre := mkEventOps(0, 15)
	if applied, kerr := e.SubmitKeyed("mon", 1, pre); kerr != nil || !applied {
		t.Fatalf("pre-checkpoint: applied=%v err=%v", applied, kerr)
	}
	cs, err := e.Checkpoint()
	if err != nil || cs.Skipped {
		t.Fatalf("checkpoint: %+v err=%v", cs, err)
	}
	post := mkEventOps(50, 15)
	if applied, kerr := e.SubmitKeyed("mon", 2, post); kerr != nil || !applied {
		t.Fatalf("post-checkpoint: applied=%v err=%v", applied, kerr)
	}
	e.Close()

	e2, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rs.CheckpointSeq == 0 {
		t.Fatalf("checkpoint not loaded: %+v", rs)
	}
	// Seq 1 lives only in the checkpoint's dedup frame (its WAL frame
	// was truncated); seq 2 only in the replayed tail. Both must dedup.
	for seq, ops := range map[uint64][]Op{1: pre, 2: post} {
		if applied, kerr := e2.SubmitKeyed("mon", seq, ops); kerr != nil || applied {
			t.Fatalf("retry of seq %d post-recovery: applied=%v err=%v", seq, applied, kerr)
		}
	}
}

// TestCheckpointDedupManySources checks the checkpoint round-trips a
// multi-source table with out-of-order seen sets intact.
func TestCheckpointDedupManySources(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ops := mkEventOps(0, 4)
	seqs := []uint64{8, 2, 5} // gaps: 1,3,4,6,7 must stay submittable
	for s := 0; s < 6; s++ {
		source := fmt.Sprintf("mon-%d", s)
		for _, seq := range seqs {
			if applied, kerr := e.SubmitKeyed(source, seq, ops); kerr != nil || !applied {
				t.Fatalf("%s seq %d: applied=%v err=%v", source, seq, applied, kerr)
			}
		}
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for s := 0; s < 6; s++ {
		source := fmt.Sprintf("mon-%d", s)
		for _, seq := range seqs {
			if applied, _ := e2.SubmitKeyed(source, seq, ops); applied {
				t.Fatalf("%s seq %d re-applied after recovery", source, seq)
			}
		}
		// A gap inside the window is not a duplicate.
		if applied, kerr := e2.SubmitKeyed(source, 6, ops); kerr != nil || !applied {
			t.Fatalf("%s gap seq 6: applied=%v err=%v", source, applied, kerr)
		}
	}
}
