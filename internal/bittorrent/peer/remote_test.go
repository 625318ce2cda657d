package peer

import (
	"slices"
	"testing"

	"swarmavail/internal/bittorrent/wire"
)

// TestRemoteRead is the shared reader on its own: what a remote may
// tell us about itself, what it may not, and what each reading returns.
func TestRemoteRead(t *testing.T) {
	const numPieces = 10 // a 2-byte bitfield
	ext := func(subID byte, body []byte) *wire.Message {
		return &wire.Message{Type: wire.MsgExtended, Block: wire.ExtendedPayload(subID, body)}
	}
	hs := func(pexID, port int64) *wire.Message {
		body, err := wire.MarshalExtendedHandshake(wire.ExtendedHandshake{PexID: pexID, Port: port})
		if err != nil {
			t.Fatal(err)
		}
		return ext(wire.ExtHandshakeID, body)
	}
	pex, err := wire.MarshalPex(wire.PexMessage{Added: []wire.PexPeer{{IP: []byte{10, 0, 0, 9}, Port: 6881}}})
	if err != nil {
		t.Fatal(err)
	}
	bitfield := func(b ...byte) *wire.Message { return &wire.Message{Type: wire.MsgBitfield, Bitfield: b} }
	have := func(i uint32) *wire.Message { return &wire.Message{Type: wire.MsgHave, Index: i} }
	gossiped := []string{"10.0.0.9:6881"}

	cases := []struct {
		name    string
		msgs    []*wire.Message // every message but the last is accepted
		wantErr bool            // the last is refused
		pieces  int
		listen  string   // what the last message returns
		gossip  []string // likewise
	}{
		{name: "short bitfield", msgs: []*wire.Message{bitfield(0xff)}, wantErr: true},
		{name: "exact bitfield", msgs: []*wire.Message{bitfield(0xff, 0xc0)}, pieces: numPieces},
		{name: "spare bits not counted", msgs: []*wire.Message{bitfield(0x80, 0x3f)}, pieces: 1},
		{name: "long bitfield", msgs: []*wire.Message{bitfield(0xff, 0xc0, 0)}, wantErr: true},
		{name: "have past numPieces", msgs: []*wire.Message{have(numPieces), have(1 << 31)}},
		{name: "repeated have", msgs: []*wire.Message{have(3), have(3)}, pieces: 1},
		{name: "have after bitfield", msgs: []*wire.Message{bitfield(0x80, 0), have(0), have(9)}, pieces: 2},
		{name: "bitfield after bitfield", msgs: []*wire.Message{bitfield(0xff, 0xc0), bitfield(0, 0)}, wantErr: true},
		{name: "bitfield after have", msgs: []*wire.Message{have(3), bitfield(0, 0)}, wantErr: true},
		{name: "bitfield after extended handshake", msgs: []*wire.Message{hs(7, 0), bitfield(0x80, 0)}, pieces: 1},
		{name: "extended handshake with port", msgs: []*wire.Message{hs(7, 51413)}, listen: "10.0.0.1:51413"},
		{name: "extended handshake without port", msgs: []*wire.Message{hs(7, 0)}},
		{name: "gossip under our sub-ID", msgs: []*wire.Message{ext(wire.ExtPexID, pex)}, gossip: gossiped},
		{name: "gossip under the declared sub-ID", msgs: []*wire.Message{hs(7, 0), ext(7, pex)}, gossip: gossiped},
		{name: "gossip under an unknown sub-ID", msgs: []*wire.Message{hs(7, 0), ext(9, pex)}},
		{name: "gossip before any declaration", msgs: []*wire.Message{ext(7, pex)}},
		{name: "undecodable extended handshake", msgs: []*wire.Message{ext(wire.ExtHandshakeID, []byte("d1:m"))}, wantErr: true},
		{name: "undecodable gossip", msgs: []*wire.Message{hs(7, 0), ext(7, []byte("l"))}, wantErr: true},
		{name: "empty extended payload", msgs: []*wire.Message{{Type: wire.MsgExtended}}, wantErr: true},
		{name: "other messages pass by", msgs: []*wire.Message{{Type: wire.MsgUnchoke}, {Type: wire.MsgPiece, Index: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			copies := make([]int, numPieces)
			r := newRemote(numPieces, "10.0.0.1:6881", copies)
			var listen string
			var gossip []string
			var err error
			for i, m := range tc.msgs {
				if listen, gossip, err = r.read(m); err != nil && i < len(tc.msgs)-1 {
					t.Fatalf("message %d refused: %v", i, err)
				}
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("last message: err = %v, want refused %v", err, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			if r.pieces != tc.pieces || r.seed() != (tc.pieces == numPieces) {
				t.Errorf("pieces = %d seed = %v, want %d", r.pieces, r.seed(), tc.pieces)
			}
			for i, n := range copies { // the one remote is every count
				if (n == 1) != r.have.Has(i) || n > 1 {
					t.Errorf("copies[%d] = %d, but the remote holding it is %v", i, n, r.have.Has(i))
				}
			}
			if listen != tc.listen || !slices.Equal(gossip, tc.gossip) {
				t.Errorf("read returned listen %q gossip %v, want %q %v", listen, gossip, tc.listen, tc.gossip)
			}
		})
	}
}
