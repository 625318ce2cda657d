package peer

import (
	"errors"
	"fmt"
	"net"
	"strconv"

	"swarmavail/internal/bittorrent/wire"
)

// The node and the §2 probe read a peer one way: the same handshake, the
// same outgoing extended handshake, and the same reader of what the
// remote volunteers about itself. A message the reader refuses ends the
// conversation on both: the node drops the connection and the probe does
// not count the peer.

// errOtherTorrent refuses a remote whose handshake names another info
// hash: it is not in this swarm (BEP 3).
var errOtherTorrent = errors.New("peer answered the handshake for another torrent")

// handshake exchanges BEP 3 handshakes on c and returns the remote's.
// The initiator writes first; the acceptor reads first, so it never
// answers a remote of another torrent.
func handshake(c net.Conn, hs wire.Handshake, initiator bool) (wire.Handshake, error) {
	if initiator {
		if err := wire.WriteHandshake(c, hs); err != nil {
			return wire.Handshake{}, err
		}
	}
	remote, err := wire.ReadHandshake(c)
	if err != nil {
		return remote, err
	}
	if remote.InfoHash != hs.InfoHash {
		return remote, errOtherTorrent
	}
	if !initiator {
		err = wire.WriteHandshake(c, hs)
	}
	return remote, err
}

// extHandshake is the BEP-10 handshake this implementation sends: ut_pex
// under wire.ExtPexID, and port as its listen port (0 = not listening).
func extHandshake(port int) *wire.Message {
	// A dictionary of integers always encodes.
	body, _ := wire.MarshalExtendedHandshake(wire.ExtendedHandshake{PexID: wire.ExtPexID, Port: int64(port)})
	return &wire.Message{Type: wire.MsgExtended, Block: wire.ExtendedPayload(wire.ExtHandshakeID, body)}
}

// remote is what the far end of one connection has told us about
// itself: the pieces it holds and the sub-ID it declared for ut_pex.
type remote struct {
	host      string // the remote's IP, for its listen address
	numPieces int
	have      wire.Bitfield
	pieces    int   // set bits of have below numPieces
	pexID     int64 // the remote's declared ut_pex sub-ID (0 = none yet)
}

func newRemote(numPieces int, addr string) *remote {
	host, _, _ := net.SplitHostPort(addr)
	return &remote{host: host, numPieces: numPieces, have: wire.NewBitfield(numPieces)}
}

// seed reports whether the remote holds every piece.
func (r *remote) seed() bool { return r.numPieces > 0 && r.pieces == r.numPieces }

// read folds a bitfield, have or extended message into r; other
// messages leave it as it is. It returns the remote's listen address
// from its extended handshake and the addresses it gossips over ut_pex,
// under the sub-ID we advertised or the one it declared. It refuses a
// bitfield of any size but (numPieces+7)/8 bytes (BEP 3) and an extended
// body that does not decode; a have at or past numPieces is ignored.
func (r *remote) read(m *wire.Message) (listen string, gossip []string, err error) {
	switch m.Type {
	case wire.MsgBitfield:
		if len(m.Bitfield) != len(r.have) {
			return "", nil, fmt.Errorf("peer: bitfield of %d bytes for %d pieces", len(m.Bitfield), r.numPieces)
		}
		copy(r.have, m.Bitfield)
		r.pieces = r.have.Count(r.numPieces)
	case wire.MsgHave:
		if i := int(m.Index); i < r.numPieces && !r.have.Has(i) {
			r.have.Set(i)
			r.pieces++
		}
	case wire.MsgExtended:
		subID, body, err := wire.SplitExtendedPayload(m.Block)
		if err != nil {
			return "", nil, err
		}
		switch subID {
		case wire.ExtHandshakeID:
			eh, err := wire.ParseExtendedHandshake(body)
			if err != nil {
				return "", nil, err
			}
			r.pexID = eh.PexID
			if eh.Port > 0 && r.host != "" {
				listen = net.JoinHostPort(r.host, strconv.FormatInt(eh.Port, 10))
			}
		case wire.ExtPexID, byte(r.pexID):
			// An unset pexID is 0, which the handshake case above takes.
			pex, err := wire.ParsePex(body)
			if err != nil {
				return "", nil, err
			}
			for _, p := range pex.Added {
				gossip = append(gossip, p.String())
			}
		}
	}
	return listen, gossip, nil
}
