package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// checkpointVersion versions the checkpoint file layout: a header
// frame, the shard frames, then one mandatory dedup frame (the
// per-source exactly-once windows, JSON); each swarm record carries its
// window-ring bins by absolute index under the geometry window.go fixes.
// A file of any other version is unreadable — skipped and reported like
// a corrupt one, with WAL replay carrying the state — so a change to the
// layout or to the window geometry bumps this number.
const checkpointVersion = 3

// checkpointsKept is how many checkpoint files survive pruning: the
// newest plus one fallback in case the newest is torn by a crash
// mid-rename (shouldn't happen — rename is atomic — but disks lie).
const checkpointsKept = 2

// DurabilityConfig parameterises OpenDurable. Only Dir is required.
type DurabilityConfig struct {
	// Dir holds the WAL segments (wal-*.seg) and checkpoint files
	// (checkpoint-*.bin). Created if missing.
	Dir string
	// Fsync selects the WAL sync policy (default wal.SyncEachAppend:
	// an acked Submit survives SIGKILL).
	Fsync wal.SyncPolicy
	// SyncEvery is the background fsync cadence under wal.SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes overrides the WAL segment rotation threshold.
	SegmentBytes int64
}

// RecoveryStats reports what OpenDurable found on disk.
type RecoveryStats struct {
	// CheckpointSeq is the WAL sequence the loaded checkpoint covers
	// (0 = no checkpoint, cold start).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointSwarms is the number of swarms restored from it.
	CheckpointSwarms int `json:"checkpoint_swarms"`
	// ReplayedFrames / ReplayedOps count the WAL tail replayed on top.
	ReplayedFrames uint64 `json:"replayed_frames"`
	ReplayedOps    uint64 `json:"replayed_ops"`
	// TruncatedBytes and DroppedSegments echo the WAL's torn-tail
	// repair (wal.OpenStats).
	TruncatedBytes  int64 `json:"truncated_bytes"`
	DroppedSegments int   `json:"dropped_segments"`
	// BadFrameSeq is non-zero when a frame's envelope was valid but its
	// payload failed to decode; the log was cut there (TruncateFrom) so
	// every future boot sees the same prefix this one replayed.
	BadFrameSeq uint64 `json:"bad_frame_seq,omitempty"`
	// SkippedCheckpoints names each checkpoint file newer than the one
	// loaded that could not be read, with the reason — recovery fell back
	// past it to an older checkpoint or to WAL replay alone.
	SkippedCheckpoints []string `json:"skipped_checkpoints,omitempty"`
}

// CheckpointStats reports one Engine.Checkpoint call.
type CheckpointStats struct {
	// Seq is the WAL sequence the checkpoint covers.
	Seq uint64 `json:"seq"`
	// Swarms is the number of swarms captured.
	Swarms int `json:"swarms"`
	// Bytes is the checkpoint file size.
	Bytes int64 `json:"bytes"`
	// Duration is the wall time spent, gate acquisition included.
	Duration time.Duration `json:"duration"`
	// Skipped is true when nothing was journaled since the previous
	// checkpoint and no file was written.
	Skipped bool `json:"skipped"`
}

// ErrNotDurable is returned by Checkpoint on an engine without a
// journal (one built by New rather than OpenDurable).
var ErrNotDurable = errors.New("ingest: engine has no durability layer")

// checkpointHeader is frame 0 of a checkpoint file. Shards counts the
// shard frames that follow — one or more per shard, since a shard's
// swarms are written in chunks of checkpointChunkSwarms.
type checkpointHeader struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	Shards  int    `json:"shards"`
	Swarms  int    `json:"swarms"`
}

// checkpointChunkSwarms is how many swarm records one shard frame
// carries. A record with full window rings is a few KiB, so a chunk
// stays far under wal.MaxFrameBytes however many swarms a shard owns
// (one frame per shard hit the bound at ~25K swarms and would not load).
const checkpointChunkSwarms = 1024

// OpenDurable opens (or cold-starts) a durable engine rooted at
// d.Dir: it loads the newest readable checkpoint, replays the WAL tail
// beyond it through the normal apply path, and returns an engine whose
// every subsequently accepted batch is journaled before it is
// acknowledged (under the default fsync policy). The swarm keyspace is
// re-partitioned by the engine's current shard count, so cfg.Shards may
// differ from the run that wrote the checkpoint.
//
// A journal frame written under another ops codec version fails the
// open with the directory untouched: cutting the log there, as is done
// at a frame no build can read, would delete acknowledged records.
func OpenDurable(cfg Config, d DurabilityConfig) (*Engine, RecoveryStats, error) {
	var rs RecoveryStats
	if d.Dir == "" {
		return nil, rs, errors.New("ingest: DurabilityConfig.Dir is required")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, rs, err
	}
	e := newEngine(cfg)

	// 1. Newest readable checkpoint → shard maps (still single-threaded).
	ckptSeq, swarms, dedupRecs, skipped, err := loadNewestCheckpoint(d.Dir, e.shards)
	if err != nil {
		return nil, rs, err
	}
	rs.CheckpointSeq, rs.CheckpointSwarms, rs.SkippedCheckpoints = ckptSeq, swarms, skipped
	e.dedup.install(dedupRecs)

	// 2. Open the journal, repairing any torn tail.
	reg := e.metrics.reg
	log, ws, err := wal.Open(d.Dir, wal.Options{
		SegmentBytes:      d.SegmentBytes,
		Policy:            d.Fsync,
		SyncEvery:         d.SyncEvery,
		FsyncSeconds:      reg.Histogram("wal_fsync_seconds", obs.LatencyBuckets),
		SegmentBytesGauge: reg.Gauge("wal_segment_bytes"),
	})
	if err != nil {
		return nil, rs, err
	}
	rs.TruncatedBytes, rs.DroppedSegments = ws.TruncatedBytes, ws.DroppedSegments

	// 3. Replay the tail through the ordinary submit path. The journal is
	// not attached yet, so replayed batches are not re-journaled — they
	// are already in the log, at the sequences being read — and keyed
	// frames re-mark their dedup windows exactly as they did live (the
	// journal only ever holds first applications).
	e.start()
	replayed := reg.Counter("recovery_replayed_total")
	var badSeq uint64
	replayErr := log.Replay(ckptSeq+1, func(seq uint64, payload []byte) error {
		source, batchSeq, ops, derr := decodeFrame(payload)
		if errors.Is(derr, errCodecVersion) {
			// Another build's frame is not a bad frame: it is whole, and
			// acknowledged. Refuse to boot and leave the journal as found.
			return fmt.Errorf("ingest: WAL frame %d: %w; boot this directory once more with the build that wrote it, and stop that build with SIGTERM so its final checkpoint covers the journal", seq, derr)
		}
		if derr != nil {
			badSeq = seq
			return derr
		}
		if _, serr := e.SubmitKeyed(source, batchSeq, ops); serr != nil {
			return serr
		}
		rs.ReplayedFrames++
		rs.ReplayedOps += uint64(len(ops))
		replayed.Add(uint64(len(ops)))
		return nil
	})
	if replayErr != nil {
		if badSeq == 0 {
			// Not a decode failure (Submit error or envelope corruption
			// that slipped past Open's repair): refuse to serve a state
			// we cannot trust.
			log.Close()
			e.Close()
			return nil, rs, replayErr
		}
		// A well-framed but undecodable payload: cut the log at the bad
		// frame so this boot's state and every later boot's agree.
		rs.BadFrameSeq = badSeq
		if terr := log.TruncateFrom(badSeq); terr != nil {
			log.Close()
			e.Close()
			return nil, rs, terr
		}
	}

	// 4. Keep sequence numbers monotonic past the checkpoint even when
	// the journal tail was shorter than it (lost or repaired away):
	// frames ≤ ckptSeq are replayed history and must never be reused.
	if err := log.AdvanceTo(ckptSeq); err != nil {
		log.Close()
		e.Close()
		return nil, rs, err
	}

	e.Flush() // replay fully applied before the first producer sees the engine
	e.journal = newJournal(log, reg)
	e.journal.lastCkpt = ckptSeq
	return e, rs, nil
}

// WAL returns the engine's journal log, or nil for an engine without a
// durability layer (one built by New). The cluster's WAL-shipping
// endpoints read from it with Tail, which is safe alongside the
// engine's appends.
func (e *Engine) WAL() *wal.Log {
	if e.journal == nil {
		return nil
	}
	return e.journal.log
}

// NewestCheckpoint reports the newest checkpoint file in dir: its path
// and the WAL sequence it covers. ok is false when dir holds no
// checkpoint. The WAL-shipping bootstrap path serves this file to a
// follower whose catch-up point has been truncated out of the journal.
func NewestCheckpoint(dir string) (path string, seq uint64, ok bool, err error) {
	seqs, err := listCheckpoints(dir)
	if err != nil || len(seqs) == 0 {
		return "", 0, false, err
	}
	return CheckpointPath(dir, seqs[0]), seqs[0], true, nil
}

// Checkpoint serializes the engine's full state to a checkpoint file in
// the durability directory and drops the WAL segments it makes
// redundant. Concurrent producers stall only for the snapshot capture
// (per-shard state copy), not for the file write. Calling it on a
// closed engine still works — the drained final state is captured —
// provided the engine was closed by Close (which leaves checkpointing
// to the caller) rather than crashed.
func (e *Engine) Checkpoint() (cs CheckpointStats, err error) {
	j := e.journal
	if j == nil {
		return cs, ErrNotDurable
	}
	start := time.Now()
	defer func() { cs.Duration = time.Since(start) }()

	j.gate.Lock()
	defer j.gate.Unlock()
	// With the gate held exclusively, every journaled batch has been
	// sent to its shard queues (submit spans append+send under RLock),
	// so a capture queued now observes everything ≤ seq.
	seq := j.log.LastSeq()
	if seq == j.lastCkpt {
		cs.Seq, cs.Skipped = seq, true
		return cs, nil
	}

	snaps := make([]*shardSnapshot, len(e.shards))
	e.onShards(e.shards, func(s *shard) { snaps[s.idx] = s.snapshot() })
	for _, s := range snaps {
		cs.Swarms += len(s.Swarms)
	}

	// The gate is held exclusively, so no keyed submit is mid-mark: the
	// windows captured here are exactly the ones the journaled prefix
	// ≤ seq produced. writeCheckpoint refuses a file that would not load,
	// so the truncation below never runs behind one.
	bytes, err := writeCheckpoint(j.log.Dir(), seq, snaps, e.dedup.records())
	if err != nil {
		return cs, err
	}
	cs.Seq, cs.Bytes = seq, bytes
	e.metrics.checkpointSeconds.Observe(time.Since(start).Seconds())

	// Space reclamation is best-effort: replay starts from the
	// checkpoint's seq regardless, so a failed truncate or prune costs
	// disk, not correctness.
	if err := j.log.TruncateThrough(seq); err != nil && !errors.Is(err, wal.ErrClosed) {
		return cs, err
	}
	if err := pruneCheckpoints(j.log.Dir()); err != nil {
		return cs, err
	}
	j.lastCkpt = seq
	return cs, nil
}

// CheckpointPath is the name of the checkpoint file covering WAL
// sequence seq in durability directory dir.
func CheckpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.bin", seq))
}

// writeCheckpoint renders the snapshot to checkpoint-<seq>.bin
// atomically: the file either exists whole and checksummed or not at
// all.
func writeCheckpoint(dir string, seq uint64, snaps []*shardSnapshot, dedup []dedupRecord) (int64, error) {
	var swarms, frames int
	for _, s := range snaps {
		swarms += len(s.Swarms)
		frames += max(1, (len(s.Swarms)+checkpointChunkSwarms-1)/checkpointChunkSwarms)
	}
	hdr, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Seq: seq, Shards: frames, Swarms: swarms})
	if err != nil {
		return 0, err
	}
	// An empty window table still writes "[]": the dedup frame is
	// mandatory, so the reader never guesses.
	if dedup == nil {
		dedup = []dedupRecord{}
	}
	dedupPayload, err := json.Marshal(dedup)
	if err != nil {
		return 0, err
	}
	return wal.WriteFileAtomic(CheckpointPath(dir, seq), func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 1<<20)
		var scratch []byte
		writeFrame := func(payload []byte) error {
			if len(payload) > wal.MaxFrameBytes {
				// The loader rejects such a frame as corruption; fail here,
				// before the rename, rather than leave a file that cannot load.
				return fmt.Errorf("ingest: checkpoint frame of %d bytes exceeds the %d-byte frame bound", len(payload), wal.MaxFrameBytes)
			}
			scratch = wal.AppendFrame(scratch[:0], payload)
			_, werr := w.Write(scratch)
			return werr
		}
		if err := writeFrame(hdr); err != nil {
			return err
		}
		for _, s := range snaps {
			// One frame per chunk of swarms; the category counters ride on the
			// first chunk only, since install adds them.
			rest := s.Swarms
			for first := true; first || len(rest) > 0; first = false {
				n := min(len(rest), checkpointChunkSwarms)
				chunk := shardSnapshot{Idx: s.Idx, Swarms: rest[:n]}
				if first {
					chunk.Cats = s.Cats
				}
				rest = rest[n:]
				payload, merr := json.Marshal(&chunk)
				if merr != nil {
					return merr
				}
				if err := writeFrame(payload); err != nil {
					return err
				}
			}
		}
		if err := writeFrame(dedupPayload); err != nil {
			return err
		}
		return w.Flush()
	})
}

// listCheckpoints returns the checkpoint sequences present in dir,
// newest first.
func listCheckpoints(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".bin"), 10, 64)
		if perr != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] > seqs[k] })
	return seqs, nil
}

// loadNewestCheckpoint installs the newest readable checkpoint into the
// shards and returns its sequence. A torn or corrupt checkpoint is
// skipped in favour of the next older one — recovery degrades to a
// longer WAL replay, never a refusal to start — and reported in
// the returned list (file: reason), so the fallback is never silent.
func loadNewestCheckpoint(dir string, shards []*shard) (uint64, int, []dedupRecord, []string, error) {
	var skipped []string
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	for _, seq := range seqs {
		path := CheckpointPath(dir, seq)
		swarms, dedup, lerr := loadCheckpoint(path, seq, shards)
		if lerr == nil {
			return seq, swarms, dedup, skipped, nil
		}
		skipped = append(skipped, fmt.Sprintf("%s: %v", filepath.Base(path), lerr))
		// Reset any partial install and fall back to the next older
		// checkpoint.
		for _, s := range shards {
			s.reset()
		}
	}
	return 0, 0, nil, skipped, nil
}

// loadCheckpoint reads one checkpoint file into the shards, routing
// each swarm by the *current* hash (the checkpoint's shard count need
// not match).
func loadCheckpoint(path string, wantSeq uint64, shards []*shard) (int, []dedupRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	r := wal.NewFrameReader(bufio.NewReaderSize(f, 1<<20))

	frame, err := r.Next()
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: checkpoint header: %w", err)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(frame, &hdr); err != nil {
		return 0, nil, fmt.Errorf("ingest: checkpoint header: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return 0, nil, fmt.Errorf("ingest: checkpoint version %d, this build reads only version %d", hdr.Version, checkpointVersion)
	}
	if hdr.Seq != wantSeq {
		return 0, nil, fmt.Errorf("ingest: checkpoint header seq %d does not match file name %d", hdr.Seq, wantSeq)
	}

	// Parse everything before installing anything, so a torn tail can't
	// leave half a checkpoint in the shard maps.
	// The header's counts are input, not trusted sizes: nothing is
	// allocated from them, and a count the file does not back runs into
	// the end of the frames.
	var snaps []*shardSnapshot
	for i := 0; i < hdr.Shards; i++ {
		frame, err := r.Next()
		if err != nil {
			return 0, nil, fmt.Errorf("ingest: checkpoint shard frame %d/%d: %w", i, hdr.Shards, err)
		}
		snap := &shardSnapshot{}
		if err := json.Unmarshal(frame, snap); err != nil {
			return 0, nil, fmt.Errorf("ingest: checkpoint shard frame %d/%d: %w", i, hdr.Shards, err)
		}
		if snap.Idx < 0 {
			return 0, nil, fmt.Errorf("ingest: checkpoint shard frame %d/%d: shard index %d", i, hdr.Shards, snap.Idx)
		}
		snaps = append(snaps, snap)
	}
	frame, err = r.Next()
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: checkpoint dedup frame: %w", err)
	}
	var dedup []dedupRecord
	if err := json.Unmarshal(frame, &dedup); err != nil {
		return 0, nil, fmt.Errorf("ingest: checkpoint dedup frame: %w", err)
	}

	var swarms int
	n := len(shards)
	for _, snap := range snaps {
		routed := make(map[int]*shardSnapshot)
		for _, rec := range snap.Swarms {
			dst := shardIndex(rec.ID, n)
			rs, ok := routed[dst]
			if !ok {
				rs = &shardSnapshot{Idx: dst}
				routed[dst] = rs
			}
			rs.Swarms = append(rs.Swarms, rec)
			swarms++
		}
		// Category counters are additive across shards; land the old
		// shard's counters on one current shard, preserving totals.
		if len(snap.Cats) > 0 {
			dst := snap.Idx % n
			rs, ok := routed[dst]
			if !ok {
				rs = &shardSnapshot{Idx: dst}
				routed[dst] = rs
			}
			rs.Cats = snap.Cats
		}
		for dst, rs := range routed {
			shards[dst].install(rs)
		}
	}
	return swarms, dedup, nil
}

// pruneCheckpoints removes all but the checkpointsKept newest files.
func pruneCheckpoints(dir string) error {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs[min(len(seqs), checkpointsKept):] {
		if err := os.Remove(CheckpointPath(dir, seq)); err != nil {
			return err
		}
	}
	return nil
}
