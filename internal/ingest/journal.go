package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unicode/utf8"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// opsCodecVersion versions the ops payload every surface carries — a
// stream DATA frame, a WAL frame, a shipped frame. A layout change
// replaces the layout and bumps this number; decodeOpsInto refuses any
// other (errCodecVersion), so a build never parses another build's
// frame as something it is not. (2 is taken: the payload's first byte
// and keyedCodecVersion share one position.)
const opsCodecVersion = 4

// keyedCodecVersion marks a frame carrying a (source, seq) idempotency
// key ahead of a complete ops payload:
//
//	[2][u16 len(source)][source bytes][u64 seq][ops payload]
//
// Keying the frame itself — rather than journaling a separate marker —
// makes the batch and its key one atomic durability unit: a crash can
// never journal the ops while losing the key, or vice versa, and WAL
// shipping carries the dedup window to followers for free.
const keyedCodecVersion = 2

// maxSourceLen bounds the idempotency source id so a corrupt frame
// cannot claim an absurd header.
const maxSourceLen = 256

// errCodecVersion is the refusal of an ops payload written under another
// opsCodecVersion (errors.Is). It is not corruption: the frame is whole
// and some other build reads it, so recovery must not cut the journal
// at it (OpenDurable).
var errCodecVersion = errors.New("ingest: foreign ops codec version")

// An ops payload is [opsCodecVersion][u32 count] and then count ops,
// each led by a byte whose low two bits are its kind. Fixed-width fields
// are little-endian: an int travels as its two's-complement u64, a float
// as its IEEE-754 bits, a string as [u32 len][UTF-8 bytes].
//
//	event   [header][swarm: zigzag varint][peer: uvarint | u64][time: f64]
//	meta    [1][swarm meta][f64 horizon days]
//	census  [2][swarm meta][u64 seeds][u64 leechers][u64 downloads]
//
//	swarm meta   [u64 id][u64 category][u64 group][f64 created day][str title]
//	             [u32 nfiles][nfiles × ([str name][f64 size KB])]
//
// An event's header is kind 0 plus the evSeed … evWidePeer bits. The
// swarm is omitted when it is the previous event's, the time when its
// bits are the previous event's; "previous" starts each payload at swarm
// 0 and time bits 0, so every payload decodes alone. A peer below
// widePeerMin is a uvarint, one at or above it (an ObservationKey hash,
// nearly always) eight fixed bytes under evWidePeer, so no peer costs
// more than 8. An event is 2 to eventWireMax bytes.
//
// nfiles == nilFiles is a nil file list, which a checkpoint renders
// differently from an empty one. No field is redundant and none has two
// spellings — the decoder refuses unknown header bits, an overlong
// varint, a repeat written out instead of flagged, a wide peer that fits
// a uvarint, invalid UTF-8 and non-finite floats — so decoding a payload
// and encoding the result reproduces its bytes.
const (
	opsHeaderSize = 1 + 4         // version byte + op count
	metaHeadBytes = 8 + 8 + 8 + 8 // id + category + group + created day
	fileWireMin   = 4 + 8         // name length + size
	nilFiles      = math.MaxUint32

	opKindMask  = 0x03
	evSeed      = 1 << 2
	evOnline    = 1 << 3
	evSameSwarm = 1 << 4 // swarm omitted: the previous event's
	evSameTime  = 1 << 5 // time omitted: the previous event's bits
	evWidePeer  = 1 << 6 // peer is a u64, not a uvarint
	evKnownBits = 1<<7 - 1
	widePeerMin = 1 << 56

	eventWireMin = 1 + 1                             // header + a one-byte peer
	eventWireMax = 1 + binary.MaxVarintLen64 + 8 + 8 // header + swarm + wide peer + time
)

// MaxFrameOps bounds the ops one payload carries, on both sides of the
// codec. An event can be two bytes, so the bytes a frame holds no longer
// bound what it decodes into; this does: 320 000 ops (15 MB of []Op) is
// what an 8 MiB stream frame of 26-byte events decoded into under
// version 3, and room for a whole POST /v1/ingest body (≈300K records)
// as one frame. The encoder refuses more, so whatever is journaled
// replays.
const MaxFrameOps = 320_000

// maxEventDays bounds an event's |time|. binIndex saturates there
// already (winMaxBin bins of winBinDays), and a session no longer than
// 2^63 days keeps every sum of them (CoveredFull, a swarm's tracked
// time) finite: two sessions from −MaxFloat64 to +MaxFloat64 summed to
// +Inf, which no later checkpoint could encode.
const maxEventDays = winMaxBin * winBinDays

// errNonFinite refuses an op carrying a NaN or ±Inf, on both sides of
// the codec: an event time would poison the swarm's UpSince or
// LastEvent, a created day, file size or horizon its registration, and
// no later checkpoint could then encode the swarm (JSON has no spelling
// for them) — while a journaled frame would bring the value back on
// every restart.
func errNonFinite(i int, what string, v float64) error {
	return fmt.Errorf("ingest: op %d has non-finite %s %v", i, what, v)
}

// check is the codec's per-op admission test: the encoder applies it to
// what it is handed, the decoder to what it read and StreamClient.Put
// to an op before batching it, so no side lets through what another
// refuses. i names the op in the error. The event case is all the hot
// path runs, and is small enough to inline.
func (op *Op) check(i int) error {
	if op.kind == opEvent && op.rec.Time <= maxEventDays && op.rec.Time >= -maxEventDays { // false for NaN
		return nil
	}
	return op.checkSlow(i)
}

func (op *Op) checkSlow(i int) error {
	switch op.kind {
	case opEvent:
		if t := op.rec.Time; t-t != 0 {
			return errNonFinite(i, "event time", t)
		}
		return fmt.Errorf("ingest: op %d has event time %v beyond ±2^62 days", i, op.rec.Time)
	case opMeta:
		if h := op.aux.horizon; h-h != 0 {
			return errNonFinite(i, "horizon", h)
		}
		return checkSwarmMeta(i, &op.aux.meta)
	case opCensus:
		return checkSwarmMeta(i, &op.aux.census.Meta)
	}
	return fmt.Errorf("ingest: op %d has unknown kind %d", i, op.kind)
}

func checkSwarmMeta(i int, m *trace.SwarmMeta) error {
	if d := m.CreatedDay; d-d != 0 {
		return errNonFinite(i, "created day", d)
	}
	for k := range m.Files {
		if kb := m.Files[k].SizeKB; kb-kb != 0 {
			return errNonFinite(i, "file size", kb)
		}
	}
	return nil
}

// prevEvent is what an event may refer back to instead of repeating it:
// the previous event's swarm and time bits in the same payload.
type prevEvent struct {
	swarm int
	tbits uint64
}

// encodeOps appends the ops payload of ops to dst.
func encodeOps(dst []byte, ops []Op) ([]byte, error) {
	if len(ops) > MaxFrameOps {
		return nil, fmt.Errorf("ingest: %d ops exceed the %d one frame carries", len(ops), MaxFrameOps)
	}
	dst = append(dst, opsCodecVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	var prev prevEvent
	for i := range ops {
		op := &ops[i]
		if err := op.check(i); err != nil {
			return nil, err
		}
		switch op.kind {
		case opEvent:
			dst = appendEvent(dst, &op.rec, &prev)
		case opMeta:
			dst = append(dst, byte(opMeta))
			dst = appendSwarmMeta(dst, &op.aux.meta)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.aux.horizon))
		case opCensus:
			c := &op.aux.census
			dst = append(dst, byte(opCensus))
			dst = appendSwarmMeta(dst, &c.Meta)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Seeds))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Leechers))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Downloads))
		}
	}
	return dst, nil
}

// appendEvent appends one event op: its header, then whichever of swarm,
// peer and time the header does not say are the previous event's. It
// grows dst once and writes in place: an append per field cost as much
// as the fields.
func appendEvent(dst []byte, r *Record, prev *prevEvent) []byte {
	at := len(dst)
	dst = slices.Grow(dst, eventWireMax)
	b := (*[eventWireMax]byte)(dst[at : at+eventWireMax])
	h := byte(opEvent)
	if r.Seed {
		h |= evSeed
	}
	if r.Online {
		h |= evOnline
	}
	n := 1
	if s := int64(r.SwarmID); r.SwarmID == prev.swarm {
		h |= evSameSwarm
	} else {
		n += binary.PutUvarint(b[n:], uint64(s<<1^s>>63)) // zigzag
	}
	if r.PeerID < widePeerMin {
		n += binary.PutUvarint(b[n:], r.PeerID)
	} else {
		h |= evWidePeer
		binary.LittleEndian.PutUint64(b[n:], r.PeerID)
		n += 8
	}
	if tbits := math.Float64bits(r.Time); tbits == prev.tbits {
		h |= evSameTime
	} else {
		binary.LittleEndian.PutUint64(b[n:], tbits)
		n += 8
		prev.tbits = tbits
	}
	b[0] = h
	prev.swarm = r.SwarmID
	return dst[:at+n]
}

func appendSwarmMeta(dst []byte, m *trace.SwarmMeta) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.ID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Category))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.GroupID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CreatedDay))
	dst = appendString(dst, m.Title)
	if m.Files == nil {
		return binary.LittleEndian.AppendUint32(dst, nilFiles)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Files)))
	for k := range m.Files {
		dst = appendString(dst, m.Files[k].Name)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Files[k].SizeKB))
	}
	return dst
}

// appendString appends [u32 len][bytes], coercing s to valid UTF-8 the
// way json.Marshal does (each invalid byte becomes U+FFFD): what a
// checkpoint would write for the string is what travels.
func appendString(dst []byte, s string) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if utf8.ValidString(s) {
		dst = append(dst, s...)
	} else {
		for _, r := range s { // an invalid byte ranges as U+FFFD
			dst = utf8.AppendRune(dst, r)
		}
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// keyedHeaderSize is the keyed prefix in front of the ops payload:
// version byte, source length + bytes, sequence number.
func keyedHeaderSize(source string) int { return 1 + 2 + len(source) + 8 }

// encodeKeyedOps appends the keyed wire form of ops to dst: the key
// header followed by the complete ops payload.
func encodeKeyedOps(dst []byte, source string, seq uint64, ops []Op) ([]byte, error) {
	if source == "" || len(source) > maxSourceLen {
		return nil, fmt.Errorf("ingest: bad idempotency source length %d", len(source))
	}
	dst = append(dst, keyedCodecVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(source)))
	dst = append(dst, source...)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return encodeOps(dst, ops)
}

// decodeFrame parses one WAL frame, keyed or plain: a keyed frame
// yields its idempotency key, a plain one source == "". Like decodeOps
// it is total — corrupt headers return errors, never panics.
func decodeFrame(data []byte) (source string, seq uint64, ops []Op, err error) {
	return decodeFrameInto(nil, data)
}

// decodeFrameInto is decodeFrame decoding into dst's backing array
// (regrown as needed).
func decodeFrameInto(dst []Op, data []byte) (source string, seq uint64, ops []Op, err error) {
	source, seq, body, err := splitFrame(data)
	if err != nil {
		return "", 0, nil, err
	}
	if ops, err = decodeOpsInto(dst, body); err != nil {
		return "", 0, nil, err
	}
	return source, seq, ops, nil
}

// splitFrame parses a frame's key header without touching its ops:
// body is the ops payload (data itself for a plain frame), ready for
// decodeOpsInto. The submit core needs every key of a group before it
// decodes any batch, so the header parse stands alone.
func splitFrame(data []byte) (source string, seq uint64, body []byte, err error) {
	if len(data) == 0 {
		return "", 0, nil, fmt.Errorf("ingest: empty journal frame")
	}
	if data[0] != keyedCodecVersion {
		return "", 0, data, nil
	}
	if len(data) < 3 {
		return "", 0, nil, fmt.Errorf("ingest: keyed journal frame too short (%d bytes)", len(data))
	}
	srclen := int(binary.LittleEndian.Uint16(data[1:3]))
	if srclen == 0 || srclen > maxSourceLen {
		return "", 0, nil, fmt.Errorf("ingest: bad keyed frame source length %d", srclen)
	}
	if len(data) < 3+srclen+8 {
		return "", 0, nil, fmt.Errorf("ingest: keyed journal frame truncated in header")
	}
	source = string(data[3 : 3+srclen])
	seq = binary.LittleEndian.Uint64(data[3+srclen : 3+srclen+8])
	return source, seq, data[3+srclen+8:], nil
}

// decodeOps parses one ops payload back into ops. It is total: any
// input — truncated, oversized counts or lengths, unknown kinds or
// flags, invalid UTF-8, a non-finite float — returns an error, never a
// panic or an allocation the bytes present do not back, because
// recovery feeds it frames whose envelope checksum passed but whose
// payload may still be foreign (a frame written by a different build,
// say).
func decodeOps(data []byte) ([]Op, error) { return decodeOpsInto(nil, data) }

// decodeOpsInto appends into dst's backing array when it has the
// capacity, regrowing otherwise; see decodeFrameInto.
func decodeOpsInto(dst []Op, data []byte) ([]Op, error) {
	if len(data) < opsHeaderSize {
		return nil, fmt.Errorf("ingest: journal frame too short (%d bytes)", len(data))
	}
	if v := data[0]; v != opsCodecVersion {
		return nil, fmt.Errorf("%w %d (this build reads and writes only version %d)", errCodecVersion, v, opsCodecVersion)
	}
	count := binary.LittleEndian.Uint32(data[1:5])
	data = data[opsHeaderSize:]
	// No op is smaller than eventWireMin and no payload carries more than
	// MaxFrameOps, so a count past either is corruption, not a reason
	// to allocate.
	if count > MaxFrameOps || uint64(count)*eventWireMin > uint64(len(data)) {
		return nil, fmt.Errorf("ingest: journal frame claims %d ops in %d bytes", count, len(data))
	}
	ops := dst[:0]
	if cap(ops) < int(count) {
		ops = make([]Op, 0, count)
	}
	var prev prevEvent
	for i := 0; i < int(count); i++ {
		if len(data) == 0 {
			return nil, fmt.Errorf("ingest: journal frame truncated at op %d/%d", i, count)
		}
		ops = ops[:i+1] // within cap: count was checked above
		op := &ops[i]
		*op = Op{}
		var err error
		switch h := data[0]; {
		case h&opKindMask == byte(opEvent):
			if data, err = decodeEvent(&op.rec, &prev, data); err != nil {
				return nil, fmt.Errorf("ingest: event op %d/%d: %w", i, count, err)
			}
		case h == byte(opMeta):
			op.kind = opMeta
			op.aux = &opAux{}
			if data, err = decodeSwarmMeta(&op.aux.meta, data[1:]); err == nil && len(data) < 8 {
				err = errShortAux
			}
			if err != nil {
				return nil, fmt.Errorf("ingest: registration op %d/%d: %w", i, count, err)
			}
			op.aux.horizon = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		case h == byte(opCensus):
			op.kind = opCensus
			op.aux = &opAux{}
			c := &op.aux.census
			if data, err = decodeSwarmMeta(&c.Meta, data[1:]); err == nil && len(data) < 24 {
				err = errShortAux
			}
			if err != nil {
				return nil, fmt.Errorf("ingest: census op %d/%d: %w", i, count, err)
			}
			c.Seeds = int(int64(binary.LittleEndian.Uint64(data[0:8])))
			c.Leechers = int(int64(binary.LittleEndian.Uint64(data[8:16])))
			c.Downloads = int(int64(binary.LittleEndian.Uint64(data[16:24])))
			data = data[24:]
		default:
			return nil, fmt.Errorf("ingest: op %d/%d has unknown kind byte %#x", i, count, h)
		}
		if err = op.check(i); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("ingest: %d trailing bytes after %d ops", len(data), count)
	}
	return ops, nil
}

// decodeEvent reads one event op off the front of data (data[0] is its
// header, of kind opEvent) into r and returns the bytes after it. It
// refuses every second spelling the encoder never writes.
func decodeEvent(r *Record, prev *prevEvent, data []byte) ([]byte, error) {
	h := data[0]
	if h&^evKnownBits != 0 {
		return nil, fmt.Errorf("unknown header bits %#x", h)
	}
	data = data[1:]
	if h&evSameSwarm == 0 {
		u, n := readUvarint(data)
		if n <= 0 {
			return nil, errVarint("swarm", n)
		}
		s := int(int64(u>>1) ^ -int64(u&1))
		if s == prev.swarm {
			return nil, errors.New("swarm repeats the previous event's but is written out")
		}
		prev.swarm = s
		data = data[n:]
	}
	if h&evWidePeer == 0 {
		u, n := readUvarint(data)
		if n <= 0 {
			return nil, errVarint("peer", n)
		}
		if u >= widePeerMin {
			return nil, fmt.Errorf("peer %#x is a varint but takes the wide form", u)
		}
		r.PeerID = u
		data = data[n:]
	} else {
		if len(data) < 8 {
			return nil, errShortEvent
		}
		if r.PeerID = binary.LittleEndian.Uint64(data); r.PeerID < widePeerMin {
			return nil, fmt.Errorf("wide peer %#x fits a varint", r.PeerID)
		}
		data = data[8:]
	}
	if h&evSameTime == 0 {
		if len(data) < 8 {
			return nil, errShortEvent
		}
		tbits := binary.LittleEndian.Uint64(data)
		if tbits == prev.tbits {
			return nil, errors.New("time repeats the previous event's but is written out")
		}
		prev.tbits = tbits
		data = data[8:]
	}
	r.SwarmID = prev.swarm
	r.Seed = h&evSeed != 0
	r.Online = h&evOnline != 0
	r.Time = math.Float64frombits(prev.tbits)
	return data, nil
}

// readUvarint reads the one spelling of a uvarint off the front of b.
// n is 0 when b ends inside it, negative when it overflows 64 bits or is
// overlong (a last byte of zero after the first).
func readUvarint(b []byte) (v uint64, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1]-1 < 0x7f { // a second and last byte, not zero
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	if v, n = binary.Uvarint(b); n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

func errVarint(field string, n int) error {
	if n == 0 {
		return errShortEvent
	}
	return fmt.Errorf("%s varint is overlong or overflows", field)
}

var (
	errShortAux   = errors.New("payload truncated")
	errShortEvent = errors.New("event truncated")
)

// decodeSwarmMeta reads one swarm meta off the front of data into m and
// returns the bytes after it.
func decodeSwarmMeta(m *trace.SwarmMeta, data []byte) ([]byte, error) {
	if len(data) < metaHeadBytes {
		return nil, errShortAux
	}
	m.ID = int(int64(binary.LittleEndian.Uint64(data[0:8])))
	m.Category = trace.Category(int64(binary.LittleEndian.Uint64(data[8:16])))
	m.GroupID = int(int64(binary.LittleEndian.Uint64(data[16:24])))
	m.CreatedDay = math.Float64frombits(binary.LittleEndian.Uint64(data[24:32]))
	var err error
	if m.Title, data, err = decodeString(data[metaHeadBytes:]); err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, errShortAux
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if n == nilFiles {
		return data, nil
	}
	// As with the op count: the bytes left bound the files they can hold.
	if uint64(n)*fileWireMin > uint64(len(data)) {
		return nil, fmt.Errorf("claims %d files in %d bytes", n, len(data))
	}
	m.Files = make([]trace.FileMeta, n)
	for k := range m.Files {
		f := &m.Files[k]
		if f.Name, data, err = decodeString(data); err != nil {
			return nil, err
		}
		if len(data) < 8 {
			return nil, errShortAux
		}
		f.SizeKB = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	return data, nil
}

// decodeString reads one [u32 len][bytes] string off the front of data.
func decodeString(data []byte) (string, []byte, error) {
	if len(data) < 4 {
		return "", nil, errShortAux
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(n) > uint64(len(data)) {
		return "", nil, fmt.Errorf("string length %d exceeds the %d bytes left", n, len(data))
	}
	if !utf8.Valid(data[:n]) {
		return "", nil, errors.New("string is not valid UTF-8")
	}
	return string(data[:n]), data[n:], nil
}

// DecodeFrame parses one journal/wire frame, keyed or plain: a keyed
// frame yields its idempotency key, a plain one source == "". It is
// total — corrupt input returns an error, never a panic. Exported for
// the cluster gateway's binary stream forwarding and for cross-package
// protocol tests; the engine's own paths use it through SubmitFrame.
func DecodeFrame(frame []byte) (source string, seq uint64, ops []Op, err error) {
	return decodeFrame(frame)
}

// EncodeFrame appends the wire form of ops to dst: the keyed layout
// when source is non-empty, the plain ops payload otherwise.
// The bytes are exactly what a WAL frame or a binary stream DATA frame
// carries — the two formats are one format.
func EncodeFrame(dst []byte, source string, seq uint64, ops []Op) ([]byte, error) {
	if source == "" {
		return encodeOps(dst, ops)
	}
	return encodeKeyedOps(dst, source, seq, ops)
}

// journal couples the engine's write path to a wal.Log. Its gate is the
// checkpoint/append ordering lock: submit holds it shared across the
// journal-append *and* the queue sends, so when Checkpoint acquires it
// exclusively, every journaled batch is also in its shard queues — and
// a capture queued afterwards (onShards) therefore observes everything
// the journal covers.
type journal struct {
	gate sync.RWMutex
	log  *wal.Log

	// lastCkpt (under gate, exclusive) is the sequence of the newest
	// checkpoint, letting Checkpoint skip when nothing was appended
	// since.
	lastCkpt uint64

	appended      *obs.Counter   // wal_appended_total: ops made durable
	appendedBytes *obs.Counter   // wal_appended_bytes_total: their frames' payload bytes
	appendFrames  *obs.Histogram // wal_append_frames: frames per append (per fsync under -fsync batch)
	bufs          sync.Pool      // *[]byte frame-encoding scratch
}

func newJournal(log *wal.Log, reg *obs.Registry) *journal {
	return &journal{
		log:           log,
		appended:      reg.Counter("wal_appended_total"),
		appendedBytes: reg.Counter("wal_appended_bytes_total"),
		appendFrames:  reg.Histogram("wal_append_frames", obs.SizeBuckets),
	}
}

// encode renders a batch (keyed when source is non-empty) into a pooled
// scratch buffer. The caller hands the buffer back via j.release.
func (j *journal) encode(source string, seq uint64, ops []Op) ([]byte, error) {
	var buf []byte
	if v := j.bufs.Get(); v != nil {
		buf = (*(v.(*[]byte)))[:0]
	}
	return EncodeFrame(buf, source, seq, ops)
}

// release returns an encode buffer to the pool.
func (j *journal) release(frame []byte) { j.bufs.Put(&frame) }

// append journals a group of encoded frames with one write and, under
// -fsync batch, one fsync — the engine's only wal.Log.Append. The log
// copies the bytes before returning, so the caller keeps the frames.
func (j *journal) append(frames [][]byte, nOps int) error {
	_, err := j.log.Append(frames...)
	if err == nil {
		var n int
		for _, f := range frames {
			n += len(f)
		}
		j.appended.Add(uint64(nOps))
		j.appendedBytes.Add(uint64(n))
		j.appendFrames.Observe(float64(len(frames)))
	}
	return err
}
