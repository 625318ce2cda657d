package ingest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// opsCodecVersion versions the WAL frame payload: a batch of Ops. Bump
// it on any layout change; decodeOps rejects unknown versions so an old
// binary never misreads a new journal.
const opsCodecVersion = 1

// keyedCodecVersion marks a frame carrying a (source, seq) idempotency
// key ahead of a complete v1 ops payload:
//
//	[ver=2][u16 len(source)][source bytes][u64 seq][v1 ops frame]
//
// Keying the frame itself — rather than journaling a separate marker —
// makes the batch and its key one atomic durability unit: a crash can
// never journal the ops while losing the key, or vice versa, and WAL
// shipping carries the dedup window to followers for free.
const keyedCodecVersion = 2

// maxSourceLen bounds the idempotency source id so a corrupt frame
// cannot claim an absurd header.
const maxSourceLen = 256

// Event ops use a fixed-width binary layout (the hot path: one frame
// per flushed batch, almost all events); registration and census ops
// carry their bulky payloads as length-prefixed JSON, reusing the
// types' existing tags.
const (
	eventWireBytes = 1 + 8 + 8 + 1 + 8 // kind + swarm + peer + flags + time
	auxWireMin     = 1 + 4             // kind + payload length
)

// metaWire is the JSON form of a registration op.
type metaWire struct {
	Meta        trace.SwarmMeta `json:"meta"`
	HorizonDays float64         `json:"horizon_days"`
}

// errNonFiniteTime refuses an event whose time is NaN or ±Inf, on both
// sides of the codec: such a time would poison the swarm's UpSince or
// LastEvent, which no later checkpoint could then encode
// (encoding/json), and a journaled frame would bring it back on every
// restart.
func errNonFiniteTime(i int, t float64) error {
	return fmt.Errorf("ingest: event op %d has non-finite time %v", i, t)
}

// encodeOps appends the wire form of ops to dst: a version byte, an op
// count, then each op.
func encodeOps(dst []byte, ops []Op) ([]byte, error) {
	dst = append(dst, opsCodecVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for i, op := range ops {
		switch op.kind {
		case opEvent:
			if t := op.rec.Time; t-t != 0 { // NaN or ±Inf
				return nil, errNonFiniteTime(i, t)
			}
			dst = append(dst, byte(opEvent))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(op.rec.SwarmID))
			dst = binary.LittleEndian.AppendUint64(dst, op.rec.PeerID)
			var flags byte
			if op.rec.Seed {
				flags |= 1
			}
			if op.rec.Online {
				flags |= 2
			}
			dst = append(dst, flags)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.rec.Time))
		case opMeta:
			payload, err := json.Marshal(metaWire{Meta: op.aux.meta, HorizonDays: op.aux.horizon})
			if err != nil {
				return nil, err
			}
			dst = append(dst, byte(opMeta))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
			dst = append(dst, payload...)
		case opCensus:
			payload, err := json.Marshal(op.aux.census)
			if err != nil {
				return nil, err
			}
			dst = append(dst, byte(opCensus))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
			dst = append(dst, payload...)
		default:
			return nil, fmt.Errorf("ingest: cannot encode op kind %d", op.kind)
		}
	}
	return dst, nil
}

// encodeKeyedOps appends the keyed (v2) wire form of ops to dst: the
// key header followed by the complete v1 encoding.
// opsHeaderSize is the fixed v1 frame prefix: version byte + op count.
const opsHeaderSize = 1 + 4

// keyedHeaderSize is the v2 prefix in front of the embedded v1 frame:
// version byte, source length + bytes, sequence number.
func keyedHeaderSize(source string) int { return 1 + 2 + len(source) + 8 }

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

// decodeFrame parses one WAL frame of either codec version: keyed (v2)
// frames yield their idempotency key, plain (v1) frames yield
// source == "". Like decodeOps it is total — corrupt headers return
// errors, never panics.
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
// body is the v1 ops payload (data itself for a plain frame), ready for
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

// decodeOps parses one WAL frame back into ops. It is total: any input
// — truncated, oversized counts, unknown kinds, bad JSON, a non-finite
// event time — returns an error, never a panic or an over-allocation,
// because recovery feeds it frames whose envelope checksum passed but
// whose payload may still be foreign (a frame written by a different
// build, say).
func decodeOps(data []byte) ([]Op, error) { return decodeOpsInto(nil, data) }

// decodeOpsInto appends into dst's backing array when it has the
// capacity, regrowing otherwise; see decodeFrameInto.
func decodeOpsInto(dst []Op, data []byte) ([]Op, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("ingest: journal frame too short (%d bytes)", len(data))
	}
	if v := data[0]; v != opsCodecVersion {
		return nil, fmt.Errorf("ingest: unknown journal codec version %d", v)
	}
	count := binary.LittleEndian.Uint32(data[1:5])
	data = data[5:]
	// Every op occupies at least auxWireMin bytes, so a count claiming
	// more ops than the payload could hold is corruption, not a reason
	// to allocate.
	if uint64(count)*auxWireMin > uint64(len(data)) {
		return nil, fmt.Errorf("ingest: journal frame claims %d ops in %d bytes", count, len(data))
	}
	ops := dst[:0]
	if cap(ops) < int(count) {
		ops = make([]Op, 0, count)
	}
	for i := uint32(0); i < count; i++ {
		if len(data) == 0 {
			return nil, fmt.Errorf("ingest: journal frame truncated at op %d/%d", i, count)
		}
		kind := opKind(data[0])
		switch kind {
		case opEvent:
			if len(data) < eventWireBytes {
				return nil, fmt.Errorf("ingest: truncated event op at %d/%d", i, count)
			}
			rec := Record{
				SwarmID: int(int64(binary.LittleEndian.Uint64(data[1:9]))),
				PeerID:  binary.LittleEndian.Uint64(data[9:17]),
				Seed:    data[17]&1 != 0,
				Online:  data[17]&2 != 0,
				Time:    math.Float64frombits(binary.LittleEndian.Uint64(data[18:26])),
			}
			if t := rec.Time; t-t != 0 { // NaN or ±Inf
				return nil, errNonFiniteTime(int(i), t)
			}
			ops = append(ops, EventOp(rec))
			data = data[eventWireBytes:]
		case opMeta, opCensus:
			if len(data) < auxWireMin {
				return nil, fmt.Errorf("ingest: truncated op header at %d/%d", i, count)
			}
			n := binary.LittleEndian.Uint32(data[1:5])
			if uint64(n) > uint64(len(data)-auxWireMin) {
				return nil, fmt.Errorf("ingest: op payload length %d exceeds frame at %d/%d", n, i, count)
			}
			payload := data[auxWireMin : auxWireMin+int(n)]
			if kind == opMeta {
				var w metaWire
				if err := json.Unmarshal(payload, &w); err != nil {
					return nil, fmt.Errorf("ingest: registration op: %w", err)
				}
				ops = append(ops, MetaOp(w.Meta, w.HorizonDays))
			} else {
				var snap trace.Snapshot
				if err := json.Unmarshal(payload, &snap); err != nil {
					return nil, fmt.Errorf("ingest: census op: %w", err)
				}
				ops = append(ops, CensusOp(snap))
			}
			data = data[auxWireMin+int(n):]
		default:
			return nil, fmt.Errorf("ingest: unknown op kind %d at %d/%d", kind, i, count)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("ingest: %d trailing bytes after %d ops", len(data), count)
	}
	return ops, nil
}

// DecodeFrame parses one journal/wire frame of either codec version:
// keyed (v2) frames yield their idempotency key, plain (v1) frames
// yield source == "". It is total — corrupt input returns an error,
// never a panic. Exported for the cluster gateway's binary stream
// forwarding and for cross-package protocol tests; the engine's own
// paths use it through SubmitFrame.
func DecodeFrame(frame []byte) (source string, seq uint64, ops []Op, err error) {
	return decodeFrame(frame)
}

// EncodeFrame appends the wire form of ops to dst: the keyed (v2)
// layout when source is non-empty, the plain (v1) layout otherwise.
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

	appended     *obs.Counter   // wal_appended_total: ops made durable
	appendFrames *obs.Histogram // wal_append_frames: frames per append (per fsync under -fsync batch)
	bufs         sync.Pool      // *[]byte frame-encoding scratch
}

func newJournal(log *wal.Log, reg *obs.Registry) *journal {
	return &journal{
		log:          log,
		appended:     reg.Counter("wal_appended_total"),
		appendFrames: reg.Histogram("wal_append_frames", obs.SizeBuckets),
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
		j.appended.Add(uint64(nOps))
		j.appendFrames.Observe(float64(len(frames)))
	}
	return err
}
