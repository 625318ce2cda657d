package peer

import (
	"io"
	mrand "math/rand"
	"net"
	"strconv"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/bittorrent/wire"
)

// fakePeer is a raw TCP peer: it answers every handshake for ih (with
// the BEP-10 bit when ext is set), writes script's messages, then reads
// until the other side leaves.
func fakePeer(t *testing.T, ih metainfo.InfoHash, ext bool, script ...*wire.Message) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := wire.ReadHandshake(c); err != nil {
					return
				}
				var id [20]byte
				copy(id[:], "-SAFAKE-fakepeer0000")
				if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: ih, PeerID: id, Extensions: ext}); err != nil {
					return
				}
				for _, m := range script {
					if err := wire.WriteMessage(c, m); err != nil {
						return
					}
				}
				_, _ = io.Copy(io.Discard, c)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// fakeQuietLeecher completes the handshake and then sends nothing —
// exactly what a freshly-joined leecher with zero pieces looks like on
// the wire (no bitfield is sent when the bitfield would be all-zero).
func fakeQuietLeecher(t *testing.T, ih metainfo.InfoHash) (addr string) {
	return fakePeer(t, ih, false)
}

// fakeHaveOnlyPeer handshakes and then advertises two pieces via bare
// have messages, never sending a bitfield — the other legitimate
// no-bitfield pattern.
func fakeHaveOnlyPeer(t *testing.T, ih metainfo.InfoHash) (addr string) {
	return fakePeer(t, ih, false,
		&wire.Message{Type: wire.MsgHave, Index: 0}, &wire.Message{Type: wire.MsgHave, Index: 2})
}

// registerPeer announces addr to the tracker so a probe will find it,
// and returns what the tracker said about the swarm.
func registerPeer(t *testing.T, announce string, ih metainfo.InfoHash, addr string, idByte byte) *tracker.AnnounceResponse {
	t.Helper()
	_, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		t.Fatal(err)
	}
	var id [20]byte
	for i := range id {
		id[i] = idByte
	}
	resp, err := tracker.AnnounceWith(nil, nil, tracker.AnnounceRequest{
		TrackerURL: announce, InfoHash: ih, PeerID: id,
		Port: port, Left: 1 << 20, Event: "started",
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestProbeCountsQuietPeerAsLeecher is the zero-piece-leecher
// regression: a handshaking peer that never sends a bitfield must be a
// leecher observation, not an unreachable drop — dropping it inflated
// measured seed fractions (the §2 methodology bias this repo exists to
// quantify).
func TestProbeCountsQuietPeerAsLeecher(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 7)
	ih, err := tor.Info.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// One real seed and one quiet zero-piece leecher.
	startNode(t, Config{Torrent: tor, Content: content})
	quiet := fakeQuietLeecher(t, ih)
	// The seed's first announce runs on its own goroutine: probing before
	// the tracker lists it would miss it. Re-announcing the quiet peer is
	// idempotent, so it doubles as the poll.
	for deadline := time.Now().Add(10 * time.Second); registerPeer(t, announce, ih, quiet, 'q').Seeders < 1; {
		if time.Now().After(deadline) {
			t.Fatal("tracker never listed the seed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	results, err := Probe(tor, ProbeConfig{
		DialTimeout:  2 * time.Second,
		BitfieldWait: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawQuiet, sawSeed bool
	seeds, peers := 0, 0
	for _, r := range results {
		peers++
		if r.Seed {
			seeds++
			sawSeed = true
		}
		if r.Addr == quiet {
			sawQuiet = true
			if r.Seed || r.Pieces != 0 {
				t.Fatalf("quiet peer classified %+v, want zero-piece leecher", r)
			}
		}
	}
	if !sawSeed {
		t.Fatalf("probe missed the seed entirely (results %+v)", results)
	}
	if !sawQuiet {
		t.Fatalf("quiet peer dropped from the probe (results %+v) — the seed/leecher ratio is biased", results)
	}
	// The corrected seed fraction: 1 seed out of ≥2 observed peers.
	// Under the old drop-quiet-peers behavior the same swarm measured
	// 1/1 = 100% seeds.
	if frac := float64(seeds) / float64(peers); frac > 0.5+1e-9 {
		t.Fatalf("seed fraction %.2f still biased high (seeds=%d peers=%d)", frac, seeds, peers)
	}
}

// TestProbeSkipsPeerOfAnotherTorrent: a listed peer whose handshake
// names another info hash is not in the swarm (BEP 3). Counting it as a
// quiet leecher would skew the measured seed fraction down.
func TestProbeSkipsPeerOfAnotherTorrent(t *testing.T) {
	announce := startTracker(t)
	tor, _ := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 7)
	ih, err := tor.Info.Hash()
	if err != nil {
		t.Fatal(err)
	}
	foreign := ih
	foreign[0] ^= 0xff
	stranger := fakeQuietLeecher(t, foreign)
	registerPeer(t, announce, ih, stranger, 's')

	results, err := Probe(tor, ProbeConfig{
		DialTimeout:  2 * time.Second,
		BitfieldWait: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Addr == stranger {
			t.Fatalf("peer of another torrent observed as %+v, want skipped", r)
		}
	}
}

// TestProbeCountsHaveOnlyPeer covers the have-only variant: piece
// announcements without a bitfield must accumulate into the observed
// piece count.
func TestProbeCountsHaveOnlyPeer(t *testing.T) {
	announce := startTracker(t)
	tor, _ := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 8)
	ih, err := tor.Info.Hash()
	if err != nil {
		t.Fatal(err)
	}
	addr := fakeHaveOnlyPeer(t, ih)
	registerPeer(t, announce, ih, addr, 'h')

	results, err := Probe(tor, ProbeConfig{
		DialTimeout:  2 * time.Second,
		BitfieldWait: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Addr != addr {
			continue
		}
		if r.Seed || r.Pieces != 2 {
			t.Fatalf("have-only peer classified %+v, want leecher with 2 pieces", r)
		}
		return
	}
	t.Fatalf("have-only peer missing from results %+v", results)
}

// TestProbeSkipsMisSizedBitfield: BEP 3 sizes a bitfield at
// (numPieces+7)/8 bytes, and a node drops a peer that sends another
// size. The probe must not count that peer either: a 0-byte bitfield
// followed by four haves of piece 0 on a 4-piece torrent once read as a
// seed with PEX on and as a zero-piece leecher with it off.
func TestProbeSkipsMisSizedBitfield(t *testing.T) {
	announce := startTracker(t)
	tor, _ := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 10)
	ih, err := tor.Info.Hash()
	if err != nil {
		t.Fatal(err)
	}
	have0 := &wire.Message{Type: wire.MsgHave, Index: 0}
	addr := fakePeer(t, ih, false,
		&wire.Message{Type: wire.MsgBitfield, Bitfield: wire.Bitfield{}}, have0, have0, have0, have0)
	registerPeer(t, announce, ih, addr, 'b')

	for _, pex := range []bool{false, true} {
		results, err := Probe(tor, ProbeConfig{
			DialTimeout:  2 * time.Second,
			BitfieldWait: 300 * time.Millisecond,
			PEX:          pex,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Addr == addr {
				t.Fatalf("PEX=%v: peer with a 0-byte bitfield observed as %+v, want skipped", pex, r)
			}
		}
	}
}

// TestProbeAnnouncesOwnAddress: the probe does not tell the tracker an
// address of its choosing, so a probe against a remote tracker is not
// listed to the swarm as a loopback address.
func TestProbeAnnouncesOwnAddress(t *testing.T) {
	announce, queries := recordingTracker(t)
	tor, _ := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 4096}}, 1024, 13)
	if _, err := Probe(tor, ProbeConfig{DialTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 {
		t.Fatal("probe never announced")
	}
	for len(queries) > 0 { // the announce and its "stopped"
		if q := <-queries; q.Has("ip") {
			t.Fatalf("probe announced ip=%q (event %q)", q.Get("ip"), q.Get("event"))
		}
	}
}

// TestProbePexDiscovery exercises PEX-assisted discovery: peer B
// announces to a different tracker, so the probed tracker cannot name
// it — only BEP-11 gossip from peer A can.
func TestProbePexDiscovery(t *testing.T) {
	announceA := startTracker(t)
	announceB := startTracker(t)
	torA, content := makeTorrent(t, announceA,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 9)
	torB := &metainfo.Torrent{Announce: announceB, Info: torA.Info}

	a := startNode(t, Config{Torrent: torA, Content: content})
	b := startNode(t, Config{Torrent: torB, Content: content,
		Bootstrap: []string{a.Addr()}})

	// Wait for A to learn B's listen address via the extended handshake.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.knownAddrs()) > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	results, err := Probe(torA, ProbeConfig{
		DialTimeout:  2 * time.Second,
		BitfieldWait: 500 * time.Millisecond,
		PEX:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results {
		if r.Addr == b.Addr() {
			found = true
			if !r.Seed {
				t.Fatalf("PEX-discovered seed classified %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("PEX discovery missed peer B (%s); results %+v (A knows %v)",
			b.Addr(), results, a.knownAddrs())
	}

	// Without PEX the same probe must NOT see B — proving the gossip
	// path (not the tracker) was the discovery channel.
	plain, err := Probe(torA, ProbeConfig{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plain {
		if r.Addr == b.Addr() {
			t.Fatalf("peer B visible without PEX — test topology is broken")
		}
	}
}

// TestBackoffAfterTable is the regression for the rng.Int63n panic on a
// non-positive base, plus overflow behavior at extreme failure counts.
func TestBackoffAfterTable(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	cases := []struct {
		name     string
		failures int
		base     time.Duration
		cap      time.Duration
		min, max time.Duration // inclusive bounds on the result
	}{
		{"base zero", 3, 0, time.Second, minBackoff / 2, time.Second},
		{"base negative", 1, -time.Second, time.Second, minBackoff / 2, time.Second},
		{"failures zero", 0, time.Second, time.Minute, time.Second / 2, time.Second},
		{"failures negative", -5, time.Second, time.Minute, time.Second / 2, time.Second},
		{"normal growth", 3, time.Second, time.Minute, 2 * time.Second, 4 * time.Second},
		{"capped", 100, time.Second, 8 * time.Second, 4 * time.Second, 8 * time.Second},
		{"overflow failures", 200, time.Hour, 24 * time.Hour, 12 * time.Hour, 24 * time.Hour},
		{"cap below base", 2, time.Second, time.Millisecond, time.Second / 2, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				got := backoffAfter(tc.failures, tc.base, tc.cap, rng)
				if got < tc.min || got > tc.max {
					t.Fatalf("backoffAfter(%d, %v, %v) = %v, want in [%v, %v]",
						tc.failures, tc.base, tc.cap, got, tc.min, tc.max)
				}
			}
		})
	}
}
