package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"swarmavail/internal/bittorrent/bencode"
)

// The BEP-10 extension protocol carries vendor extensions inside message
// type 20. We implement the subset the paper's methodology depends on:
// the extended handshake and ut_pex (BEP-11 peer exchange), which lets
// peers — and the §2 monitoring agents — discover neighbours beyond the
// tracker's answer.

// MsgExtended is the BEP-10 extended message type.
const MsgExtended MessageType = 20

// Extension sub-message IDs.
const (
	// ExtHandshakeID is the reserved sub-ID of the extended handshake.
	ExtHandshakeID = 0
	// ExtPexID is the sub-ID this implementation assigns to ut_pex in
	// its extended handshake.
	ExtPexID = 1
)

// extensionReservedByte/Bit flag BEP-10 support in the handshake
// reserved field (bit 20 from the right: byte 5, 0x10).
const (
	extensionReservedByte = 5
	extensionReservedBit  = 0x10
)

// ExtendedHandshake is the payload of sub-message 0: the map from
// extension names to the sub-IDs the sender will understand, plus the
// sender's listen port (the "p" key), which PEX needs to advertise
// dialable addresses.
type ExtendedHandshake struct {
	// PexID is the sub-ID the sender assigned to ut_pex, 1..255
	// (0 = PEX not supported).
	PexID int64
	// Port is the sender's TCP listen port, 1..65535 (0 = not
	// listening).
	Port int64
}

// MarshalExtendedHandshake encodes the handshake dictionary.
func MarshalExtendedHandshake(h ExtendedHandshake) ([]byte, error) {
	m := map[string]any{}
	if h.PexID != 0 {
		m["ut_pex"] = h.PexID
	}
	d := map[string]any{"m": m}
	if h.Port != 0 {
		d["p"] = h.Port
	}
	return bencode.Encode(d)
}

// ParseExtendedHandshake decodes the handshake dictionary. A ut_pex id
// outside 1..255 cannot name a one-byte sub-ID other than the handshake's
// own, and a port outside 1..65535 cannot be dialed, so either reads as 0:
// not advertised.
func ParseExtendedHandshake(payload []byte) (ExtendedHandshake, error) {
	var out ExtendedHandshake
	v, err := bencode.Decode(payload)
	if err != nil {
		return out, fmt.Errorf("wire: extended handshake: %w", err)
	}
	d, ok := bencode.AsDict(v)
	if !ok {
		return out, errors.New("wire: extended handshake is not a dictionary")
	}
	out.Port = inRange(d, "p", 65535)
	m, ok := d.Sub("m")
	if !ok {
		return out, nil // no extensions advertised
	}
	out.PexID = inRange(m, "ut_pex", 255)
	return out, nil
}

// inRange returns d's integer under key if it lies in 1..hi, else 0.
func inRange(d bencode.Dict, key string, hi int64) int64 {
	if v, ok := d.Int(key); ok && v >= 1 && v <= hi {
		return v
	}
	return 0
}

// PexMessage is a ut_pex payload: peers recently added to and dropped
// from the sender's neighbourhood, in compact 6-byte format.
type PexMessage struct {
	Added   []PexPeer
	Dropped []PexPeer
}

// PexPeer is one IPv4 endpoint.
type PexPeer struct {
	IP   net.IP
	Port uint16
}

// String renders host:port.
func (p PexPeer) String() string {
	return fmt.Sprintf("%s:%d", p.IP.String(), p.Port)
}

func compactPeers(peers []PexPeer) (string, error) {
	buf := make([]byte, 0, 6*len(peers))
	for _, p := range peers {
		ip4 := p.IP.To4()
		if ip4 == nil {
			return "", fmt.Errorf("wire: pex peer %v is not IPv4", p.IP)
		}
		buf = append(buf, ip4...)
		var port [2]byte
		binary.BigEndian.PutUint16(port[:], p.Port)
		buf = append(buf, port[:]...)
	}
	return string(buf), nil
}

func parseCompactPeers(s string) ([]PexPeer, error) {
	if len(s)%6 != 0 {
		return nil, fmt.Errorf("wire: compact peer list length %d", len(s))
	}
	var out []PexPeer
	for off := 0; off < len(s); off += 6 {
		out = append(out, PexPeer{
			IP:   net.IPv4(s[off], s[off+1], s[off+2], s[off+3]),
			Port: binary.BigEndian.Uint16([]byte(s[off+4 : off+6])),
		})
	}
	return out, nil
}

// MarshalPex encodes a ut_pex payload.
func MarshalPex(m PexMessage) ([]byte, error) {
	added, err := compactPeers(m.Added)
	if err != nil {
		return nil, err
	}
	dropped, err := compactPeers(m.Dropped)
	if err != nil {
		return nil, err
	}
	return bencode.Encode(map[string]any{
		"added":   added,
		"dropped": dropped,
	})
}

// ParsePex decodes a ut_pex payload.
func ParsePex(payload []byte) (PexMessage, error) {
	var out PexMessage
	v, err := bencode.Decode(payload)
	if err != nil {
		return out, fmt.Errorf("wire: pex: %w", err)
	}
	d, ok := bencode.AsDict(v)
	if !ok {
		return out, errors.New("wire: pex payload is not a dictionary")
	}
	if s, ok := d.Str("added"); ok {
		if out.Added, err = parseCompactPeers(s); err != nil {
			return out, err
		}
	}
	if s, ok := d.Str("dropped"); ok {
		if out.Dropped, err = parseCompactPeers(s); err != nil {
			return out, err
		}
	}
	return out, nil
}

// ExtendedPayload frames an extension sub-message: one sub-ID byte
// followed by the bencoded body. Use with Message{Type: MsgExtended,
// Block: payload}.
func ExtendedPayload(subID byte, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = subID
	copy(out[1:], body)
	return out
}

// SplitExtendedPayload separates the sub-ID byte from the body.
func SplitExtendedPayload(payload []byte) (subID byte, body []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, errors.New("wire: empty extended payload")
	}
	return payload[0], payload[1:], nil
}
