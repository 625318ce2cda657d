// Package wal is a segmented append-only write-ahead log of opaque
// binary frames, the durability substrate under internal/ingest's
// streaming engine. It stores what the paper's monitoring pipeline
// cannot afford to lose: seven months of continuously accumulated
// observations, which a process restart would otherwise erase.
//
// # Format
//
// A log is a directory of segment files named wal-<firstseq>.seg,
// where <firstseq> is the sequence number of the segment's first
// frame. Each frame is
//
//	uint32 LE  payload length
//	uint32 LE  CRC32-C (Castagnoli) of the payload
//	payload bytes
//
// Sequence numbers start at 1 and are implicit: frame i of a segment
// with base b has sequence b+i. There is no in-frame seq field to
// corrupt or skew — the name plus the position is the number.
//
// # Crash safety
//
// Appends go to the active (last) segment; rotation seals it and opens
// a new one. A crash can leave a torn frame at the tail of the active
// segment; Open scans every segment front to back and truncates the
// log at the first invalid frame (bad length, short payload, CRC
// mismatch), deleting any later segments — the recovered log is always
// a clean prefix of what was appended. Under SyncEachAppend every frame
// of an Append (one frame or a group) is fsynced before it returns, so
// an acknowledged append survives SIGKILL; the softer policies trade
// that guarantee for throughput and bound the loss to the sync interval
// (or the OS flush horizon).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"swarmavail/internal/obs"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended frames are fsynced to stable
// storage.
type SyncPolicy uint8

const (
	// SyncEachAppend fsyncs before Append returns — once per call,
	// however many frames the call carries: an acknowledged append
	// survives power loss. The default, and the policy the
	// zero-acked-loss crash tests assume.
	SyncEachAppend SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery):
	// a crash loses at most the last interval of acknowledged appends.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes when it pleases.
	SyncNone
)

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "off"
	default:
		return "batch"
	}
}

// ParseSyncPolicy converts a -fsync flag value ("batch", "interval",
// "off") to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "batch", "always", "each":
		return SyncEachAppend, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none", "never":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval or off)", s)
}

// Options parameterises Open. The zero value selects per-append fsync
// and 64 MiB segments.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that finds the
	// active segment at or past it seals the segment first
	// (default 64 MiB).
	SegmentBytes int64
	// Policy selects the fsync policy (default SyncEachAppend).
	Policy SyncPolicy
	// SyncEvery is the background fsync cadence under SyncInterval
	// (default 100ms).
	SyncEvery time.Duration
	// FsyncSeconds, when set, observes the duration of every fsync
	// (wal_fsync_seconds). Nil-safe, like all obs instruments.
	FsyncSeconds *obs.Histogram
	// SegmentBytesGauge, when set, tracks the active segment's size
	// (wal_segment_bytes).
	SegmentBytesGauge *obs.Gauge
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	return o
}

// segment is one on-disk segment file.
type segment struct {
	base   uint64 // sequence number of the first frame
	frames uint64 // valid frames in the file
	size   int64  // bytes of valid frames
	path   string
}

func (s segment) lastSeq() uint64 { return s.base + s.frames - 1 }

// OpenStats reports what Open found and repaired.
type OpenStats struct {
	// Segments is the number of segment files kept.
	Segments int
	// Frames is the number of valid frames across them.
	Frames uint64
	// TruncatedBytes counts bytes cut from a torn or corrupt tail.
	TruncatedBytes int64
	// DroppedSegments counts whole segments discarded because an
	// earlier segment's corruption invalidated everything after it.
	DroppedSegments int
}

// Log is an open write-ahead log. Append/Sync/TruncateThrough are safe
// for concurrent use; Replay must not run concurrently with Append.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	active  segment
	sealed  []segment
	nextSeq uint64
	buf     []byte // frame assembly scratch
	closed  bool
	failed  error // sticky: a torn write that could not be rolled back

	// writeHook, when set, replaces the segment write — tests inject
	// short writes through it.
	writeHook func(f *os.File, p []byte) (int, error)

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

// Open opens (creating if needed) the log in dir, repairing any torn
// tail left by a crash: the log is truncated at the first invalid
// frame and later segments are deleted, so what remains is a clean
// prefix of the appended frames.
func Open(dir string, opts Options) (*Log, OpenStats, error) {
	opts = opts.withDefaults()
	var st OpenStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, st, err
	}

	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	valid := true
	// The first segment anchors the sequence space: a checkpoint may
	// have dropped every earlier segment (TruncateThrough), so the log
	// legitimately starts at any base. Continuity is enforced from that
	// anchor on.
	expectBase := uint64(0)
	for _, seg := range segs {
		if !valid || (expectBase != 0 && seg.base != expectBase) {
			// Everything after a repaired (or missing) segment is
			// unreachable log space: drop it.
			if err := os.Remove(seg.path); err != nil {
				return nil, st, err
			}
			st.DroppedSegments++
			valid = false
			continue
		}
		frames, size, total, err := scanSegment(seg.path)
		if err != nil {
			return nil, st, err
		}
		if size < total {
			if err := os.Truncate(seg.path, size); err != nil {
				return nil, st, err
			}
			st.TruncatedBytes += total - size
			valid = false // later segments are beyond the repair point
		}
		seg.frames, seg.size = frames, size
		if frames == 0 {
			// A fully-torn (or empty) segment: remove the husk.
			if err := os.Remove(seg.path); err != nil {
				return nil, st, err
			}
			continue
		}
		l.sealed = append(l.sealed, seg)
		expectBase = seg.lastSeq() + 1
	}
	for _, seg := range l.sealed {
		st.Frames += seg.frames
	}
	if n := len(l.sealed); n > 0 {
		l.nextSeq = l.sealed[n-1].lastSeq() + 1
		// Reopen the newest segment for appending.
		l.active = l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(l.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, st, err
		}
		l.f = f
	}
	st.Segments = len(l.sealed)
	if l.f != nil {
		st.Segments++
	}
	opts.SegmentBytesGauge.Set(float64(l.active.size))

	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, st, nil
}

// listSegments returns dir's segment files sorted by base sequence.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil || base == 0 {
			continue // foreign file; leave it alone
		}
		segs = append(segs, segment{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// scanSegment walks path frame by frame and returns the count and byte
// length of the valid prefix, plus the file's total size.
func scanSegment(path string) (frames uint64, validSize, totalSize int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	totalSize = info.Size()
	r := &frameReader{r: f}
	for {
		payload, err := r.next()
		if err != nil {
			// io.EOF, a torn tail, or corruption: the valid prefix ends
			// here either way; the caller truncates to validSize.
			return frames, validSize, totalSize, nil
		}
		frames++
		validSize += int64(FrameHeaderSize + len(payload))
	}
}

// segmentPath names the segment whose first frame has sequence base.
func (l *Log) segmentPath(base uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016d.seg", base))
}

// Append writes payloads as consecutive frames — one group: a single
// write per segment touched and, under SyncEachAppend, a single fsync —
// and returns the sequence number of the last one. Frames land exactly
// where one Append per payload would put them (rotation may fall
// between two frames of a group; sealing syncs the old segment). Under
// SyncEachAppend every frame of the group is on stable storage when
// Append returns.
func (l *Log) Append(payloads ...[]byte) (uint64, error) {
	for _, p := range payloads {
		if len(p) == 0 || len(p) > MaxFrameBytes {
			return 0, fmt.Errorf("wal: payload size %d out of range (1..%d)", len(p), MaxFrameBytes)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if len(payloads) == 0 {
		return l.nextSeq - 1, nil
	}
	l.buf = l.buf[:0]
	pending := uint64(0) // frames assembled in buf, not yet written
	for _, p := range payloads {
		if l.f != nil && l.active.size+int64(len(l.buf)) >= l.opts.SegmentBytes {
			if err := l.writeLocked(pending); err != nil {
				return 0, err
			}
			pending = 0
			if err := l.sealLocked(); err != nil {
				return 0, err
			}
		}
		if l.f == nil {
			if err := l.openSegmentLocked(); err != nil {
				return 0, err
			}
		}
		l.buf = AppendFrame(l.buf, p)
		pending++
	}
	if err := l.writeLocked(pending); err != nil {
		return 0, err
	}
	if l.opts.Policy == SyncEachAppend {
		if err := l.fsyncLocked(); err != nil {
			return 0, err
		}
	}
	return l.nextSeq - 1, nil
}

// writeLocked writes the n frames assembled in l.buf to the active
// segment and accounts for them. After a failed or short write the next
// successful one would land behind the torn bytes (the segment is
// O_APPEND, or its offset has moved), be fsynced and acknowledged — and
// the next Open would truncate at the torn frame and drop it. The segment is therefore
// rolled back to its last good frame boundary; if even that fails the
// log fail-stops rather than append behind garbage.
func (l *Log) writeLocked(n uint64) error {
	if n == 0 {
		return nil
	}
	write := l.f.Write
	if l.writeHook != nil {
		write = func(p []byte) (int, error) { return l.writeHook(l.f, p) }
	}
	if _, err := write(l.buf); err != nil {
		terr := l.f.Truncate(l.active.size)
		if terr == nil {
			// A freshly created segment is not O_APPEND: its offset moved.
			_, terr = l.f.Seek(l.active.size, io.SeekStart)
		}
		if terr != nil {
			l.failed = fmt.Errorf("wal: log failed: write: %v; rollback: %w", err, terr)
			return l.failed
		}
		return err
	}
	l.active.size += int64(len(l.buf))
	l.active.frames += n
	l.nextSeq += n
	l.buf = l.buf[:0]
	l.opts.SegmentBytesGauge.Set(float64(l.active.size))
	return nil
}

// fsyncLocked syncs the active segment, timing the call.
func (l *Log) fsyncLocked() error {
	if l.f == nil {
		return nil
	}
	start := time.Now()
	err := l.f.Sync()
	l.opts.FsyncSeconds.Observe(time.Since(start).Seconds())
	return err
}

// Sync forces the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.fsyncLocked()
}

// syncLoop is the SyncInterval background fsync.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.fsyncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// sealLocked syncs and closes the active segment, moving it to the
// sealed list.
func (l *Log) sealLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	if l.active.frames > 0 {
		l.sealed = append(l.sealed, l.active)
	} else if err := os.Remove(l.active.path); err != nil {
		return err
	}
	l.active = segment{}
	return nil
}

// openSegmentLocked starts a fresh active segment at nextSeq.
func (l *Log) openSegmentLocked() error {
	path := l.segmentPath(l.nextSeq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.active = segment{base: l.nextSeq, path: path}
	l.opts.SegmentBytesGauge.Set(0)
	return syncDir(l.dir)
}

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the sequence number of the newest appended frame
// (0 when the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FirstSeq returns the sequence number of the oldest frame still on
// disk, or 0 when the log holds no frames (empty, or fully truncated by
// a checkpoint). Together with LastSeq it bounds what Tail can serve: a
// reader asking for a sequence below FirstSeq must bootstrap from a
// checkpoint instead.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].base
	}
	if l.f != nil && l.active.frames > 0 {
		return l.active.base
	}
	return 0
}

// Segments returns the number of on-disk segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sealed)
	if l.f != nil {
		n++
	}
	return n
}

// Replay streams every frame with sequence ≥ fromSeq, in order, to fn.
// A non-nil error from fn aborts the replay and is returned. Replay
// must not run concurrently with Append.
func (l *Log) Replay(fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	return l.Tail(fromSeq, fn)
}

// Tail streams every frame with sequence ≥ fromSeq that existed when the
// call was made, in order, to fn. Unlike Replay's contract, Tail is safe
// to run concurrently with Append: it snapshots the segment list (and
// the active segment's valid length) under the lock, then reads only
// that prefix — frames appended afterwards are simply not served, and a
// torn tail beyond the snapshot is never touched. This is the WAL-
// shipping read path: a follower polls Tail-backed HTTP responses while
// the leader keeps appending.
//
// A segment deleted mid-read (checkpoint truncation racing the tail)
// surfaces as a file-open error; callers that poll should treat it as a
// cue to re-check FirstSeq and bootstrap from a checkpoint if a gap
// opened.
func (l *Log) Tail(fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := make([]segment, 0, len(l.sealed)+1)
	segs = append(segs, l.sealed...)
	if l.f != nil {
		segs = append(segs, l.active)
	}
	l.mu.Unlock()

	for _, seg := range segs {
		if seg.frames == 0 || seg.lastSeq() < fromSeq {
			continue
		}
		if err := replaySegment(seg, fromSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(seg segment, fromSeq uint64, fn func(uint64, []byte) error) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := &frameReader{r: io.LimitReader(f, seg.size)}
	for i := uint64(0); i < seg.frames; i++ {
		payload, err := r.next()
		if err != nil {
			return fmt.Errorf("wal: segment %s frame %d: %w", filepath.Base(seg.path), i, err)
		}
		if seq := seg.base + i; seq >= fromSeq {
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateThrough drops every whole segment whose frames all have
// sequence ≤ seq — the checkpointer's "journal up to seq is now
// redundant" call. The active segment is sealed first if it qualifies,
// so a checkpoint of the full log empties it.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f != nil && l.active.frames > 0 && l.active.lastSeq() <= seq {
		if err := l.sealLocked(); err != nil {
			return err
		}
	}
	kept := l.sealed[:0]
	removed := false
	for _, s := range l.sealed {
		if s.lastSeq() <= seq {
			if err := os.Remove(s.path); err != nil {
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// AdvanceTo raises the log's next sequence number to at least seq+1,
// dropping any segments made redundant on the way (everything ≤ seq).
// Recovery uses it after loading a checkpoint at seq: even if the
// journal tail was lost or repaired away, future appends must never
// reuse a sequence number the checkpoint already covers, or a later
// recovery would skip them as replayed history.
func (l *Log) AdvanceTo(seq uint64) error {
	if err := l.TruncateThrough(seq); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.nextSeq > seq {
		return nil
	}
	// nextSeq ≤ seq means every surviving frame had sequence ≤ seq, so
	// TruncateThrough removed every sealed segment; only an empty active
	// segment can remain. Retire it so the next append opens a segment
	// whose name matches the advanced sequence.
	if l.f != nil {
		if err := l.sealLocked(); err != nil {
			return err
		}
	}
	l.nextSeq = seq + 1
	return nil
}

// TruncateFrom discards every frame with sequence ≥ seq — the recovery
// path's response to a frame whose envelope is valid but whose payload
// fails to decode: cut the log there so later boots see the same clean
// prefix this one replayed.
func (l *Log) TruncateFrom(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq >= l.nextSeq {
		return nil
	}
	// Seal the active segment so every segment is handled uniformly.
	if l.f != nil {
		if err := l.sealLocked(); err != nil {
			return err
		}
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		switch {
		case s.lastSeq() < seq:
			kept = append(kept, s)
		case s.base >= seq:
			if err := os.Remove(s.path); err != nil {
				return err
			}
		default:
			// The cut lands inside this segment: truncate it at the
			// boundary frame.
			keep := seq - s.base // frames to keep
			size, err := frameOffset(s, keep)
			if err != nil {
				return err
			}
			if err := os.Truncate(s.path, size); err != nil {
				return err
			}
			s.frames, s.size = keep, size
			if s.frames == 0 {
				if err := os.Remove(s.path); err != nil {
					return err
				}
			} else {
				kept = append(kept, s)
			}
		}
	}
	l.sealed = kept
	l.nextSeq = seq
	return syncDir(l.dir)
}

// frameOffset returns the byte offset of frame index n in seg.
func frameOffset(seg segment, n uint64) (int64, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var off int64
	var hdr [FrameHeaderSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return 0, err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if _, err := f.Seek(length, io.SeekCurrent); err != nil {
			return 0, err
		}
		off += FrameHeaderSize + length
	}
	return off, nil
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.f != nil {
		err = l.fsyncLocked()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	return err
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable. Best effort: some platforms/filesystems reject it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// WriteFileAtomic writes the file at path so that, across a crash at
// any point, the name holds either its previous content or everything
// write produced: the bytes go to a temp file in the same directory,
// which is fsynced, closed and renamed over path, and then the directory
// is fsynced so the rename itself survives power loss. The temp file is
// removed on every failure path. Returns the number of bytes written.
func WriteFileAtomic(path string, write func(io.Writer) error) (size int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close() // closing twice is harmless
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return 0, err
	}
	if err = tmp.Sync(); err != nil {
		return 0, err
	}
	if size, err = tmp.Seek(0, io.SeekCurrent); err != nil {
		return 0, err
	}
	if err = tmp.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return size, syncDir(dir)
}
