package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The frame codec is the one envelope every binary surface of the
// system shares: WAL segments on disk, checkpoint files, the follower's
// WAL-shipping HTTP stream, and the binary ingest stream protocol all
// carry
//
//	uint32 LE  payload length
//	uint32 LE  CRC32-C (Castagnoli) of the payload
//	payload bytes
//
// Keeping one implementation here — instead of per-consumer copies —
// means one set of corruption rules: a length of 0 or above
// MaxFrameBytes is corruption (never an allocation request), a short
// read is a torn frame, and a checksum mismatch rejects the payload
// before any byte of it is interpreted.

// ErrCorrupt marks an invalid frame: a torn header or payload, an
// out-of-range length, or a checksum mismatch. Readers wrap it, so
// errors.Is(err, ErrCorrupt) identifies the class.
var ErrCorrupt = errors.New("wal: corrupt frame")

// FrameHeaderSize is the per-frame envelope overhead in bytes:
// the length word plus the CRC word.
const FrameHeaderSize = 8

// MaxFrameBytes bounds a single frame's payload; a length field larger
// than this is treated as corruption rather than an allocation request.
const MaxFrameBytes = 64 << 20

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst in the frame encoding
// (length + CRC32-C + payload). Exported so sibling binary formats —
// internal/ingest's checkpoint files and streaming ingest protocol, the
// cluster WAL shipper — share the framing and its corruption detection.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// FinishFrame seals a frame built in place: env must start with
// FrameHeaderSize reserved bytes (their content ignored) followed by
// the payload. The header is written over the reserved prefix and env
// is returned whole. This is the zero-copy complement to AppendFrame
// for callers that append the payload directly after a reserved header
// — one allocation for the whole envelope instead of payload + copy.
func FinishFrame(env []byte) ([]byte, error) {
	if len(env) < FrameHeaderSize {
		return nil, fmt.Errorf("wal: FinishFrame on %d bytes, need %d reserved", len(env), FrameHeaderSize)
	}
	payload := env[FrameHeaderSize:]
	if len(payload) == 0 || len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("wal: FinishFrame payload length %d out of range", len(payload))
	}
	binary.LittleEndian.PutUint32(env[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(env[4:8], crc32.Checksum(payload, castagnoli))
	return env, nil
}

// ParseFrame decodes the frame at the head of buf without copying:
// payload aliases buf, and size is the frame's encoded length (header
// plus payload). A nil payload with a nil error means buf holds only
// part of a frame: size is then the length the whole frame needs, or 0
// while even the header is incomplete. An out-of-range length or a
// checksum mismatch returns an error wrapping ErrCorrupt.
func ParseFrame(buf []byte) (payload []byte, size int, err error) {
	if len(buf) < FrameHeaderSize {
		return nil, 0, nil
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	if length == 0 || length > MaxFrameBytes {
		return nil, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, length)
	}
	size = FrameHeaderSize + int(length)
	if len(buf) < size {
		return nil, size, nil
	}
	payload = buf[FrameHeaderSize:size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, size, nil
}

// frameReader decodes frames from a byte stream.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next returns the next frame's payload. io.EOF marks a clean end;
// ErrCorrupt (wrapped) marks a torn or invalid frame. The envelope is
// read into one buffer and judged by ParseFrame, so a stream and a
// byte slice are held to the same rules.
func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) < FrameHeaderSize {
		fr.buf = make([]byte, FrameHeaderSize)
	}
	hdr := fr.buf[:FrameHeaderSize]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn frame header: %v", ErrCorrupt, err)
	}
	_, size, err := ParseFrame(hdr)
	if err != nil {
		return nil, err
	}
	if cap(fr.buf) < size {
		fr.buf = append(make([]byte, 0, size), hdr...)
	}
	env := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, env[FrameHeaderSize:]); err != nil {
		return nil, fmt.Errorf("%w: torn frame payload: %v", ErrCorrupt, err)
	}
	payload, _, err := ParseFrame(env)
	return payload, err
}

// FrameReader decodes a stream of frames written by AppendFrame.
type FrameReader struct {
	fr frameReader
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{fr: frameReader{r: r}}
}

// Next returns the next frame's payload, valid until the following
// call. io.EOF marks a clean end of stream; a torn or invalid frame
// returns an error wrapping ErrCorrupt.
func (r *FrameReader) Next() ([]byte, error) { return r.fr.next() }
