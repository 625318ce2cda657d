// Package wire implements the BitTorrent peer wire protocol: the
// handshake and the length-prefixed message stream (choke, unchoke,
// interested, not-interested, have, bitfield, request, piece, cancel),
// plus the bitfield representation peers exchange.
//
// The §2 measurement methodology records exactly these bitfields to
// distinguish seeds from leechers; internal/bittorrent/peer and the
// bt mon monitoring agent both speak this protocol over TCP.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"swarmavail/internal/bittorrent/metainfo"
)

// ProtocolString is the BitTorrent handshake protocol identifier.
const ProtocolString = "BitTorrent protocol"

// MaxMessageSize bounds accepted message payloads (a piece block plus
// header slack); larger lengths indicate a corrupt or hostile stream.
const MaxMessageSize = 1<<18 + 16

// MessageType identifies a peer wire message.
type MessageType uint8

// Message type codes per the BitTorrent specification.
const (
	MsgChoke         MessageType = 0
	MsgUnchoke       MessageType = 1
	MsgInterested    MessageType = 2
	MsgNotInterested MessageType = 3
	MsgHave          MessageType = 4
	MsgBitfield      MessageType = 5
	MsgRequest       MessageType = 6
	MsgPiece         MessageType = 7
	MsgCancel        MessageType = 8
)

// String implements fmt.Stringer.
func (t MessageType) String() string {
	switch t {
	case MsgChoke:
		return "choke"
	case MsgUnchoke:
		return "unchoke"
	case MsgInterested:
		return "interested"
	case MsgNotInterested:
		return "not-interested"
	case MsgHave:
		return "have"
	case MsgBitfield:
		return "bitfield"
	case MsgRequest:
		return "request"
	case MsgPiece:
		return "piece"
	case MsgCancel:
		return "cancel"
	case MsgExtended:
		return "extended"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Handshake is the fixed-size connection preamble.
type Handshake struct {
	InfoHash metainfo.InfoHash
	PeerID   [20]byte
	// Extensions reports BEP-10 extension-protocol support (reserved
	// bit 20), which gates the extended handshake and ut_pex.
	Extensions bool
}

// handshakeLen = 1 + len(pstr) + 8 reserved + 20 + 20.
var handshakeLen = 1 + len(ProtocolString) + 8 + 20 + 20

// WriteHandshake sends a handshake on w.
func WriteHandshake(w io.Writer, h Handshake) error {
	buf := make([]byte, 0, handshakeLen)
	buf = append(buf, byte(len(ProtocolString)))
	buf = append(buf, ProtocolString...)
	reserved := make([]byte, 8)
	if h.Extensions {
		reserved[extensionReservedByte] |= extensionReservedBit
	}
	buf = append(buf, reserved...)
	buf = append(buf, h.InfoHash[:]...)
	buf = append(buf, h.PeerID[:]...)
	_, err := w.Write(buf)
	return err
}

// ReadHandshake reads and validates a handshake from r.
func ReadHandshake(r io.Reader) (Handshake, error) {
	var h Handshake
	buf := make([]byte, handshakeLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, fmt.Errorf("wire: reading handshake: %w", err)
	}
	if int(buf[0]) != len(ProtocolString) || string(buf[1:1+len(ProtocolString)]) != ProtocolString {
		return h, errors.New("wire: not a BitTorrent handshake")
	}
	reserved := buf[1+len(ProtocolString) : 1+len(ProtocolString)+8]
	h.Extensions = reserved[extensionReservedByte]&extensionReservedBit != 0
	off := 1 + len(ProtocolString) + 8
	copy(h.InfoHash[:], buf[off:off+20])
	copy(h.PeerID[:], buf[off+20:off+40])
	return h, nil
}

// Message is one decoded peer wire message. KeepAlive is represented by
// a nil *Message from ReadMessage.
type Message struct {
	Type MessageType
	// Index is the piece index for have/request/piece/cancel.
	Index uint32
	// Begin is the block offset for request/piece/cancel.
	Begin uint32
	// Length is the block length for request/cancel.
	Length uint32
	// Bitfield is the payload of a bitfield message.
	Bitfield Bitfield
	// Block is the payload of a piece message.
	Block []byte
}

// Marshal serialises the message with its length prefix.
func (m *Message) Marshal() []byte {
	var payload []byte
	switch m.Type {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
	case MsgHave:
		payload = make([]byte, 4)
		binary.BigEndian.PutUint32(payload, m.Index)
	case MsgBitfield:
		payload = m.Bitfield
	case MsgRequest, MsgCancel:
		payload = make([]byte, 12)
		binary.BigEndian.PutUint32(payload[0:4], m.Index)
		binary.BigEndian.PutUint32(payload[4:8], m.Begin)
		binary.BigEndian.PutUint32(payload[8:12], m.Length)
	case MsgPiece:
		payload = make([]byte, 8+len(m.Block))
		binary.BigEndian.PutUint32(payload[0:4], m.Index)
		binary.BigEndian.PutUint32(payload[4:8], m.Begin)
		copy(payload[8:], m.Block)
	case MsgExtended:
		payload = m.Block
	}
	out := make([]byte, 4+1+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(1+len(payload)))
	out[4] = byte(m.Type)
	copy(out[5:], payload)
	return out
}

// WriteMessage sends m on w. A nil message sends a keep-alive.
func WriteMessage(w io.Writer, m *Message) error {
	if m == nil {
		_, err := w.Write([]byte{0, 0, 0, 0})
		return err
	}
	_, err := w.Write(m.Marshal())
	return err
}

// ReadMessage reads the next message from r. It returns (nil, nil) for a
// keep-alive.
func ReadMessage(r io.Reader) (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(lenBuf[:])
	if length == 0 {
		return nil, nil // keep-alive
	}
	if length > MaxMessageSize {
		return nil, fmt.Errorf("wire: message length %d exceeds limit", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: reading message body: %w", err)
	}
	m := &Message{Type: MessageType(body[0])}
	payload := body[1:]
	switch m.Type {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		if len(payload) != 0 {
			return nil, fmt.Errorf("wire: %v with payload", m.Type)
		}
	case MsgHave:
		if len(payload) != 4 {
			return nil, fmt.Errorf("wire: have payload %d bytes", len(payload))
		}
		m.Index = binary.BigEndian.Uint32(payload)
	case MsgBitfield:
		m.Bitfield = Bitfield(payload)
	case MsgRequest, MsgCancel:
		if len(payload) != 12 {
			return nil, fmt.Errorf("wire: %v payload %d bytes", m.Type, len(payload))
		}
		m.Index = binary.BigEndian.Uint32(payload[0:4])
		m.Begin = binary.BigEndian.Uint32(payload[4:8])
		m.Length = binary.BigEndian.Uint32(payload[8:12])
	case MsgPiece:
		if len(payload) < 8 {
			return nil, fmt.Errorf("wire: piece payload %d bytes", len(payload))
		}
		m.Index = binary.BigEndian.Uint32(payload[0:4])
		m.Begin = binary.BigEndian.Uint32(payload[4:8])
		m.Block = payload[8:]
	case MsgExtended:
		if len(payload) < 1 {
			return nil, fmt.Errorf("wire: extended message without sub-ID")
		}
		m.Block = payload
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", body[0])
	}
	return m, nil
}

// Bitfield is the piece-possession bitmap exchanged at connection start
// and updated via have messages — the exact data the paper's monitoring
// agents record to classify seeds.
type Bitfield []byte

// NewBitfield returns an all-zero bitfield for n pieces.
func NewBitfield(n int) Bitfield {
	return make(Bitfield, (n+7)/8)
}

// Has reports whether piece i is set.
func (b Bitfield) Has(i int) bool {
	if i < 0 || i/8 >= len(b) {
		return false
	}
	return b[i/8]&(0x80>>(i%8)) != 0
}

// Set marks piece i as possessed.
func (b Bitfield) Set(i int) {
	if i < 0 || i/8 >= len(b) {
		return
	}
	b[i/8] |= 0x80 >> (i % 8)
}

// Count returns the number of pieces set (considering only the first n
// pieces if n ≥ 0; pass -1 to count all bits).
func (b Bitfield) Count(n int) int {
	total := 0
	limit := len(b) * 8
	if n >= 0 && n < limit {
		limit = n
	}
	for i := 0; i < limit; i++ {
		if b.Has(i) {
			total++
		}
	}
	return total
}

// Complete reports whether all n pieces are set — i.e. the remote is a
// seed.
func (b Bitfield) Complete(n int) bool { return b.Count(n) == n }

// Clone returns a copy.
func (b Bitfield) Clone() Bitfield {
	c := make(Bitfield, len(b))
	copy(c, b)
	return c
}
