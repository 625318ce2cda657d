package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// sliceSource adapts a slice to trace.Source for the replay helpers.
type sliceSource[T any] struct {
	recs []T
	i    int
}

func (s *sliceSource[T]) Scan() bool {
	if s.i >= len(s.recs) {
		return false
	}
	s.i++
	return true
}
func (s *sliceSource[T]) Record() T  { return s.recs[s.i-1] }
func (s *sliceSource[T]) Err() error { return nil }

func TestOpsCodecRoundTrip(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(20, 7))
	snaps := trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 13, NumSwarms: 25})
	var ops []Op
	for _, tr := range traces {
		ops = append(ops, TraceOps(tr)...)
	}
	for _, sn := range snaps {
		ops = append(ops, CensusOp(sn))
	}
	// The extremes of every event field: the time bound, both peer forms
	// and the width where they meet, swarm ids needing ten varint bytes.
	ops = append(ops,
		EventOp(Record{SwarmID: -3, PeerID: math.MaxUint64, Seed: true, Online: true, Time: maxEventDays}),
		EventOp(Record{SwarmID: math.MinInt64, PeerID: widePeerMin - 1, Time: -maxEventDays}),
		EventOp(Record{SwarmID: math.MaxInt64, PeerID: widePeerMin, Online: true, Time: -maxEventDays}),
		EventOp(Record{SwarmID: math.MaxInt64, PeerID: 0, Time: math.Copysign(0, -1)}),
		EventOp(Record{SwarmID: 0, PeerID: 1, Time: 0}),
	)

	frame, err := encodeOps(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeOps(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		g := got[i]
		if g.kind != op.kind {
			t.Fatalf("op %d kind %d, want %d", i, g.kind, op.kind)
		}
		switch op.kind {
		case opEvent:
			if g.rec != op.rec {
				t.Fatalf("op %d record %+v, want %+v", i, g.rec, op.rec)
			}
		case opMeta:
			if !reflect.DeepEqual(g.aux.meta, op.aux.meta) || g.aux.horizon != op.aux.horizon {
				t.Fatalf("op %d meta mismatch", i)
			}
		case opCensus:
			if !reflect.DeepEqual(g.aux.census, op.aux.census) {
				t.Fatalf("op %d census mismatch", i)
			}
		}
	}
}

// withLastTime returns a copy of an encoded frame whose last op is an
// event, with that event's time overwritten: the only way to build a
// frame holding a time the encoder refuses.
func withLastTime(frame []byte, t float64) []byte {
	frame = append([]byte{}, frame...)
	binary.LittleEndian.PutUint64(frame[len(frame)-8:], math.Float64bits(t))
	return frame
}

func TestDecodeOpsRejectsGarbage(t *testing.T) {
	valid, err := encodeOps(nil, []Op{EventOp(Record{SwarmID: 1, Time: 2})})
	if err != nil {
		t.Fatal(err)
	}
	withHeader := func(h byte) []byte {
		frame := append([]byte{}, valid...)
		frame[opsHeaderSize] = h
		return frame
	}
	beyond := math.Nextafter(maxEventDays, math.Inf(1))
	cases := map[string][]byte{
		"NaN time":              withLastTime(valid, math.NaN()),
		"+Inf time":             withLastTime(valid, math.Inf(1)),
		"-Inf time":             withLastTime(valid, math.Inf(-1)),
		"time past +2^62":       withLastTime(valid, beyond),
		"time past -2^62":       withLastTime(valid, -beyond),
		"time -MaxFloat64":      withLastTime(valid, -math.MaxFloat64),
		"empty":                 nil,
		"short":                 {opsCodecVersion, 0, 0},
		"truncated op":          valid[:len(valid)-4],
		"trailing bytes":        append(append([]byte{}, valid...), 0xee),
		"absurd count":          append([]byte{opsCodecVersion, 0xff, 0xff, 0xff, 0xff}, valid[opsHeaderSize:]...),
		"count + 1":             append([]byte{opsCodecVersion, 2, 0, 0, 0}, valid[opsHeaderSize:]...),
		"unknown kind":          withHeader(42),
		"kind 3":                withHeader(3),
		"header bit 7":          withHeader(0x80),
		"meta kind, event bits": withHeader(byte(opMeta) | evSeed),
		"short meta":            withHeader(byte(opMeta)),
		"short census":          withHeader(byte(opCensus)),
	}
	for name, data := range cases {
		if _, err := decodeOps(data); err == nil || errors.Is(err, errCodecVersion) {
			t.Errorf("%s: decode error %v", name, err)
		}
	}
	for _, v := range []byte{0, 1, keyedCodecVersion, 3, opsCodecVersion + 1, 99} {
		if _, err := decodeOps(append([]byte{v}, valid[1:]...)); !errors.Is(err, errCodecVersion) {
			t.Errorf("version %d: decode error %v, want the codec version refusal", v, err)
		}
	}
	for _, edge := range []float64{maxEventDays, -maxEventDays} {
		if _, err := decodeOps(withLastTime(valid, edge)); err != nil {
			t.Errorf("a time of %v days, at the bound, was refused: %v", edge, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), beyond, -math.MaxFloat64} {
		if _, err := encodeOps(nil, []Op{EventOp(Record{SwarmID: 1, Time: bad})}); err == nil {
			t.Errorf("an event at time %v encoded without error", bad)
		}
	}
}

// TestEventTimeBounded: finite-but-extreme event times are refused at
// admission. Two seed sessions from −MaxFloat64 to +MaxFloat64 on one
// swarm summed its CoveredFull to +Inf, and every later Checkpoint
// failed in encoding/json. At the bound, ±2^62 days, the same sessions
// are accepted and checkpoint.
func TestEventTimeBounded(t *testing.T) {
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sessions := func(swarm int, t0, t1 float64) []Op {
		var ops []Op
		for peer := uint64(1); peer <= 2; peer++ {
			ops = append(ops,
				EventOp(Record{SwarmID: swarm, PeerID: peer, Seed: true, Online: true, Time: t0}),
				EventOp(Record{SwarmID: swarm, PeerID: peer, Seed: true, Online: false, Time: t1}))
		}
		return ops
	}
	seq := e.WAL().LastSeq()
	extreme := sessions(1, -math.MaxFloat64, math.MaxFloat64)
	if err := e.Submit(extreme); err == nil || !strings.Contains(err.Error(), "beyond ±2^62 days") {
		t.Fatalf("Submit of sessions spanning ±MaxFloat64: %v", err)
	}
	edge, err := encodeKeyedOps(nil, "mon-edge", 1, sessions(1, -maxEventDays, maxEventDays))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitFrame(withLastTime(edge, math.MaxFloat64)); err == nil {
		t.Fatal("a frame whose last event is at +MaxFloat64 was accepted")
	}
	c := NewStreamClient(StreamClientConfig{Addr: "127.0.0.1:1"}) // never dials: Put refuses first
	if err := c.Put(extreme[0]); err == nil {
		t.Fatal("StreamClient.Put accepted an event at -MaxFloat64")
	}
	if got := e.WAL().LastSeq(); got != seq {
		t.Fatalf("journal moved from seq %d to %d: a refused op reached the WAL", seq, got)
	}

	if applied, err := e.SubmitFrame(edge); err != nil || !applied {
		t.Fatalf("sessions at ±2^62 days: applied=%v err=%v", applied, err)
	}
	if cs, err := e.Checkpoint(); err != nil || cs.Skipped {
		t.Fatalf("checkpoint after sessions at ±2^62 days: %+v, %v", cs, err)
	}
	if st, ok := e.Swarm(1); !ok || st.Events != 4 {
		t.Fatalf("swarm 1 = %+v (known=%v), want the four events at the bound", st, ok)
	}
}

// TestDurableRefusesNonFiniteTime: an event whose time is NaN or ±Inf is
// refused before it is journaled or acknowledged, by the frame path (the
// bytes arrive encoded) and by the in-process one (the engine encodes).
// Accepted, it would put NaN in the swarm's UpSince (or +Inf in its
// LastEvent), every later Checkpoint would fail in encoding/json, and a
// restart would replay the frame.
func TestDurableRefusesNonFiniteTime(t *testing.T) {
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	good := []Op{EventOp(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: 0.5})}
	if err := e.Submit(good); err != nil {
		t.Fatal(err)
	}
	seq := e.WAL().LastSeq()

	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// The frame as a peer's encoder without the check would send it.
		frame, err := encodeKeyedOps(nil, "mon-nan", uint64(i+1), good)
		if err != nil {
			t.Fatal(err)
		}
		if applied, err := e.SubmitFrame(withLastTime(frame, bad)); err == nil {
			t.Errorf("a frame holding an event at time %v was accepted (applied=%v)", bad, applied)
		}
		if err := e.Submit([]Op{good[0], EventOp(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: bad})}); err == nil {
			t.Errorf("Submit accepted an event at time %v", bad)
		}
	}
	if got := e.WAL().LastSeq(); got != seq {
		t.Errorf("journal moved from seq %d to %d: a refused frame reached the WAL", seq, got)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after refused non-finite times: %v", err)
	}
	if st, ok := e.Swarm(1); !ok || st.Events != 1 {
		t.Fatalf("swarm 1 = %+v (known=%v), want the one accepted event", st, ok)
	}
	// The key of a refused frame is not spent: the monitor's corrected
	// retry under the same key applies.
	if applied, err := e.SubmitKeyed("mon-nan", 1, good); err != nil || !applied {
		t.Fatalf("retry under the refused frame's key: applied=%v err=%v", applied, err)
	}
}

// replayHalves pushes traces[:k] and snaps, optionally checkpoints,
// then pushes traces[k:].
func feedDurable(t *testing.T, e *Engine, traces []trace.SwarmTrace, snaps []trace.Snapshot, k int, checkpoint bool) {
	t.Helper()
	if _, err := ReplayTraces(e, &sliceSource[trace.SwarmTrace]{recs: traces[:k]}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySnapshots(e, &sliceSource[trace.Snapshot]{recs: snaps}, 2); err != nil {
		t.Fatal(err)
	}
	if checkpoint {
		cs, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if cs.Skipped || cs.Seq == 0 {
			t.Fatalf("checkpoint did nothing: %+v", cs)
		}
		if cs.Duration <= 0 {
			t.Fatalf("checkpoint reports no duration: %+v", cs)
		}
	}
	if _, err := ReplayTraces(e, &sliceSource[trace.SwarmTrace]{recs: traces[k:]}, 2); err != nil {
		t.Fatal(err)
	}
}

// referenceFingerprint is the ground truth: the same data through a
// plain in-memory engine.
func referenceFingerprint(t *testing.T, shards int, traces []trace.SwarmTrace, snaps []trace.Snapshot) []byte {
	t.Helper()
	ref := New(Config{Shards: shards})
	defer ref.Close()
	if _, err := ReplayTraces(ref, &sliceSource[trace.SwarmTrace]{recs: traces}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySnapshots(ref, &sliceSource[trace.Snapshot]{recs: snaps}, 2); err != nil {
		t.Fatal(err)
	}
	return summaryFingerprint(t, ref.Summary())
}

func TestDurableCheckpointRecoverEquality(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(120, 11))
	snaps := trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 13, NumSwarms: 150})
	want := referenceFingerprint(t, 4, traces, snaps)

	for _, mode := range []struct {
		name       string
		checkpoint bool
		reShards   int
	}{
		{"wal only", false, 4},
		{"checkpoint plus tail", true, 4},
		{"reshard 4 to 2", true, 2},
		{"reshard 4 to 7", false, 7},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			e, rs, err := OpenDurable(Config{Shards: 4}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if rs.CheckpointSeq != 0 || rs.ReplayedFrames != 0 {
				t.Fatalf("cold start recovered something: %+v", rs)
			}
			feedDurable(t, e, traces, snaps, 60, mode.checkpoint)
			if !bytes.Equal(summaryFingerprint(t, e.Summary()), want) {
				t.Fatal("durable engine diverged from in-memory reference before restart")
			}
			e.Close()

			e2, rs2, err := OpenDurable(Config{Shards: mode.reShards}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if mode.checkpoint && rs2.CheckpointSeq == 0 {
				t.Fatalf("checkpoint not found: %+v", rs2)
			}
			if !mode.checkpoint && rs2.ReplayedFrames == 0 {
				t.Fatalf("nothing replayed: %+v", rs2)
			}
			got := summaryFingerprint(t, e2.Summary())
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered state diverged (shards %d→%d)\ngot:  %s\nwant: %s",
					4, mode.reShards, got, want)
			}
		})
	}
}

func TestDurableRecoveryAfterCheckpointOnClosedEngine(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(60, 3))
	want := referenceFingerprint(t, 3, traces, nil)

	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 3}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTraces(e, &sliceSource[trace.SwarmTrace]{recs: traces}, 2); err != nil {
		t.Fatal(err)
	}
	e.Close()
	// The shutdown checkpoint runs after Close: the drained final state
	// is captured even though the journal is already sealed.
	cs, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after close: %v", err)
	}
	if cs.Swarms == 0 {
		t.Fatalf("empty post-close checkpoint: %+v", cs)
	}

	e2, rs, err := OpenDurable(Config{Shards: 3}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rs.CheckpointSeq != cs.Seq {
		t.Fatalf("recovered checkpoint seq %d, want %d", rs.CheckpointSeq, cs.Seq)
	}
	// Everything is inside the checkpoint; the journal tail holds only
	// already-covered frames.
	if rs.ReplayedFrames != 0 {
		t.Fatalf("replayed %d frames past a full checkpoint", rs.ReplayedFrames)
	}
	if got := summaryFingerprint(t, e2.Summary()); !bytes.Equal(got, want) {
		t.Fatal("recovered state diverged after post-close checkpoint")
	}
}

func TestDurableTornWALTailRecovers(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(40, 5))
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTraces(e, &sliceSource[trace.SwarmTrace]{recs: traces}, 1); err != nil {
		t.Fatal(err)
	}
	want := summaryFingerprint(t, e.Summary())
	e.Close()

	// Tear the tail: a crash mid-append leaves a half-written frame.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xba, 0xad, 0xf0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rs.TruncatedBytes != 7 {
		t.Fatalf("TruncatedBytes = %d, want 7", rs.TruncatedBytes)
	}
	if got := summaryFingerprint(t, e2.Summary()); !bytes.Equal(got, want) {
		t.Fatal("torn tail lost acknowledged frames")
	}
}

func TestDurableBadFramePayloadCutsLog(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(Record{SwarmID: 1, PeerID: 2, Seed: true, Online: true, Time: 0.5}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Append a frame whose envelope is valid but whose payload isn't an
	// op batch — what a foreign or future-versioned writer would leave.
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	badSeq, err := log.Append([]byte{0xfe, 0xfe, 0xfe})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	e2, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatalf("recovery refused a decodable-prefix log: %v", err)
	}
	defer e2.Close()
	if rs.BadFrameSeq != badSeq {
		t.Fatalf("BadFrameSeq = %d, want %d", rs.BadFrameSeq, badSeq)
	}
	if rs.ReplayedFrames != badSeq-1 {
		t.Fatalf("replayed %d frames, want %d", rs.ReplayedFrames, badSeq-1)
	}
	if st, ok := e2.Swarm(1); !ok || st.SeedsOnline != 1 {
		t.Fatalf("state before the bad frame lost: %+v ok=%v", st, ok)
	}
}

func TestCheckpointSkipAndPrune(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for round := 0; round < 3; round++ {
		if err := e.Observe(Record{SwarmID: round, PeerID: 9, Seed: true, Online: true, Time: float64(round)}); err != nil {
			t.Fatal(err)
		}
		cs, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cs.Skipped {
			t.Fatalf("round %d: checkpoint skipped with fresh data", round)
		}
		// Nothing new ⇒ skip, no file churn.
		again, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !again.Skipped || again.Seq != cs.Seq {
			t.Fatalf("round %d: idle checkpoint not skipped: %+v", round, again)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != checkpointsKept {
		t.Fatalf("%d checkpoint files on disk, want %d: %v", len(files), checkpointsKept, files)
	}
}

func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(30, 9))
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTraces(e, &sliceSource[trace.SwarmTrace]{recs: traces[:15]}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTraces(e, &sliceSource[trace.SwarmTrace]{recs: traces[15:]}, 1); err != nil {
		t.Fatal(err)
	}
	cs, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Corrupt the newest checkpoint mid-file: recovery must fall back
	// to the older one plus a longer WAL replay... but the WAL segments
	// the newest checkpoint truncated are gone, so the older checkpoint
	// alone cannot reach `want`. What recovery CAN promise is the state
	// of the newest *readable* checkpoint plus the surviving journal —
	// here, everything up to the older checkpoint. Verify it boots and
	// serves exactly that — byte for byte what an engine that only ever
	// saw that prefix serves — rather than failing or serving a mix of the
	// two checkpoints.
	raw, err := os.ReadFile(CheckpointPath(dir, cs.Seq))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(CheckpointPath(dir, cs.Seq), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatalf("recovery failed outright on a corrupt checkpoint: %v", err)
	}
	defer e2.Close()
	if rs.CheckpointSeq == cs.Seq || rs.CheckpointSeq == 0 {
		t.Fatalf("fell back to checkpoint %d, want the older one", rs.CheckpointSeq)
	}
	if len(rs.SkippedCheckpoints) != 1 || !strings.HasPrefix(rs.SkippedCheckpoints[0], filepath.Base(CheckpointPath(dir, cs.Seq))+": ") {
		t.Fatalf("skipped checkpoints = %q, want the corrupt file and its reason", rs.SkippedCheckpoints)
	}
	ref := New(Config{Shards: 2})
	defer ref.Close()
	if _, err := ReplayTraces(ref, &sliceSource[trace.SwarmTrace]{recs: traces[:15]}, 1); err != nil {
		t.Fatal(err)
	}
	// The bodies of /v1/state and /v1/window/state.
	for name, read := range map[string]func(*Engine) any{
		"state":        func(e *Engine) any { return e.Summary().State() },
		"window state": func(e *Engine) any { return e.Window() },
	} {
		got, err := json.Marshal(read(e2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(read(ref))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fallback recovery's %s differs from an uninterrupted run of the covered prefix\n--- recovered ---\n%s\n--- reference ---\n%s", name, got, want)
		}
	}
}

// TestUnreadableCheckpointSkippedWALCarriesState: a checkpoint whose
// frames are all CRC-valid but which this build cannot read — another
// version, a field in a retired encoding, a header or shard frame with
// hostile counts — is an unreadable checkpoint like a torn one: skipped,
// named in SkippedCheckpoints, never a panic or an allocation sized by
// the file, and the WAL behind it carries the whole state.
func TestUnreadableCheckpointSkippedWALCarriesState(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(20, 17))
	snaps := trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 19, NumSwarms: 30})
	feed := func(dir string, checkpoint bool) (state []byte, seq uint64) {
		e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		feedDurable(t, e, traces, snaps, len(traces), false)
		if checkpoint {
			cs, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			seq = cs.Seq
		}
		return stateBytes(e), seq
	}
	// One genuine checkpoint, taken apart into its frame payloads.
	src := t.TempDir()
	want, seq := feed(src, true)
	f, err := os.Open(CheckpointPath(src, seq))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var genuine [][]byte
	for r := wal.NewFrameReader(f); ; {
		frame, err := r.Next()
		if err != nil {
			break
		}
		genuine = append(genuine, bytes.Clone(frame))
	}
	if len(genuine) < 3 || !bytes.Contains(genuine[1], []byte(`"downloads":`)) {
		t.Fatalf("checkpoint has %d frames; want header, shard frames with category counters, dedup", len(genuine))
	}
	rewrite := func(frame int, old, new string) func([][]byte) {
		return func(frames [][]byte) {
			re := regexp.MustCompile(old)
			if !re.Match(frames[frame]) {
				t.Fatalf("frame %d does not match %s: %.200s", frame, old, frames[frame])
			}
			frames[frame] = re.ReplaceAll(frames[frame], []byte(new))
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func([][]byte)
		reason string
	}{
		{"version 2 header", rewrite(0, `"version":3`, `"version":2`), "version 2"},
		{"version 4 header", rewrite(0, `"version":3`, `"version":4`), "version 4"},
		{"Welford-object downloads", rewrite(1, `"downloads":\d+`, `"downloads":{"n":3,"mean":2,"m2":0,"min":1,"max":3}`), "shard frame 0/"},
		{"negative shard frame count", rewrite(0, `"shards":\d+`, `"shards":-1`), "dedup frame"},
		{"shard frame count of 2^40", rewrite(0, `"shards":\d+`, `"shards":1099511627776`), "shard frame"},
		{"negative shard index", rewrite(1, `"idx":\d+`, `"idx":-1`), "shard index -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if got, _ := feed(dir, false); !bytes.Equal(got, want) {
				t.Fatal("the two feeds disagree before any checkpoint is involved")
			}
			frames := slices.Clone(genuine)
			tc.mutate(frames)
			var file []byte
			for _, frame := range frames {
				file = wal.AppendFrame(file, frame)
			}
			if err := os.WriteFile(CheckpointPath(dir, seq), file, 0o644); err != nil {
				t.Fatal(err)
			}

			e, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
			if err != nil {
				t.Fatalf("recovery failed outright: %v", err)
			}
			defer e.Close()
			if len(rs.SkippedCheckpoints) != 1 || !strings.Contains(rs.SkippedCheckpoints[0], tc.reason) ||
				!strings.HasPrefix(rs.SkippedCheckpoints[0], filepath.Base(CheckpointPath(dir, seq))+": ") {
				t.Fatalf("skipped checkpoints = %q, want the crafted file and a reason naming %q", rs.SkippedCheckpoints, tc.reason)
			}
			if rs.CheckpointSeq != 0 || rs.ReplayedFrames == 0 {
				t.Fatalf("recovered %+v, want no checkpoint and a WAL replay", rs)
			}
			if got := stateBytes(e); !bytes.Equal(got, want) {
				t.Fatalf("WAL replay behind a skipped checkpoint lost state\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestCheckpointChunksLargeShard: a shard holding more swarms than one
// checkpoint frame carries is written as several frames (category
// counters once) and loads back whole — taken on the open engine, so
// the WAL behind it is truncated and the checkpoint alone must carry
// the state.
func TestCheckpointChunksLargeShard(t *testing.T) {
	const swarms = 2*checkpointChunkSwarms + 7
	dir := t.TempDir()
	e, _, err := OpenDurable(Config{Shards: 1}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWriter()
	for id := 0; id < swarms; id++ {
		w.Observe(Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: float64(id%50) / 10})
	}
	for _, sn := range trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 3, NumSwarms: 30}) {
		w.ObserveCensus(sn)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(e)
	cs, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	f, err := os.Open(CheckpointPath(dir, cs.Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr checkpointHeader
	if frame, err := wal.NewFrameReader(f).Next(); err != nil || json.Unmarshal(frame, &hdr) != nil {
		t.Fatalf("checkpoint header unreadable: %v", err)
	}
	if hdr.Shards != 3 || hdr.Swarms != cs.Swarms {
		t.Fatalf("header = %+v, want 3 shard frames covering %d swarms", hdr, cs.Swarms)
	}

	e2, rs, err := OpenDurable(Config{Shards: 1}, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rs.CheckpointSwarms != cs.Swarms || rs.ReplayedFrames != 0 || len(rs.SkippedCheckpoints) != 0 {
		t.Fatalf("recovered %+v, want %d swarms from the checkpoint alone", rs, cs.Swarms)
	}
	if got := stateBytes(e2); !bytes.Equal(got, want) {
		t.Fatalf("chunked checkpoint did not round-trip\ngot:  %s\nwant: %s", got, want)
	}
}

func TestCheckpointOnPlainEngineErrors(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on plain engine: %v", err)
	}
}

func TestOpenDurableRequiresDir(t *testing.T) {
	if _, _, err := OpenDurable(Config{}, DurabilityConfig{}); err == nil ||
		!strings.Contains(err.Error(), "Dir") {
		t.Fatalf("missing-dir error: %v", err)
	}
}

func TestDurableFsyncPolicies(t *testing.T) {
	for _, p := range []wal.SyncPolicy{wal.SyncEachAppend, wal.SyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, _, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: p})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if err := e.Observe(Record{SwarmID: i, PeerID: 1, Seed: true, Online: true, Time: 1}); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()
			e2, rs, err := OpenDurable(Config{Shards: 2}, DurabilityConfig{Dir: dir, Fsync: p})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if rs.ReplayedOps != 100 {
				t.Fatalf("replayed %d ops, want 100", rs.ReplayedOps)
			}
		})
	}
}
