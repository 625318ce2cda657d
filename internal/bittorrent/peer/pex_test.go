package peer

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/wire"
)

// TestPexDiscovery exercises the §2.2 discovery path: a node that never
// uses tracker peer lists must still reach the whole swarm through a
// single bootstrap neighbour plus ut_pex gossip.
func TestPexDiscovery(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 32 * 1024}}, 4096, 99)

	// Seeder and a helper leecher discover each other via the tracker.
	seeder := startNode(t, Config{Torrent: tor, Content: content})
	helper := startNode(t, Config{Torrent: tor})
	waitDone(t, helper, 15*time.Second)

	// The isolated node bootstraps off the seeder only; it must learn the
	// helper's address through PEX gossip and complete the swarm view.
	isolated := startNode(t, Config{
		Torrent:             tor,
		DisableTrackerPeers: true,
		Bootstrap:           []string{seeder.Addr()},
	})
	waitDone(t, isolated, 15*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if isolated.NumConns() >= 2 {
			return // seeder + PEX-discovered helper
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("PEX never connected the isolated node to the helper: %d conns",
		isolated.NumConns())
}

// TestPexSurvivesBootstrapDeparture: after learning the swarm via PEX,
// the isolated node can keep downloading when its bootstrap goes away.
func TestPexSurvivesBootstrapDeparture(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 48 * 1024}}, 4096, 103)

	seeder := startNode(t, Config{Torrent: tor, Content: content})
	// Helper completes and stays as a second seed.
	helper := startNode(t, Config{Torrent: tor})
	waitDone(t, helper, 15*time.Second)

	isolated := startNode(t, Config{
		Torrent:             tor,
		DisableTrackerPeers: true,
		Bootstrap:           []string{seeder.Addr()},
	})
	// Wait until gossip connected it to the helper, then drop the seeder.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && isolated.NumConns() < 2 {
		time.Sleep(50 * time.Millisecond)
	}
	if isolated.NumConns() < 2 {
		t.Fatal("gossip never delivered the helper's address")
	}
	seeder.Stop()
	waitDone(t, isolated, 15*time.Second)
}

// TestGossipUnderDeclaredSubID: a peer that gossips ut_pex under the
// sub-ID it declared for itself (7), not the one we advertised, is
// still heard, by a node and by the probe alike.
func TestGossipUnderDeclaredSubID(t *testing.T) {
	announce := startTracker(t)
	tor, _ := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 12)
	ih, err := tor.Info.Hash()
	if err != nil {
		t.Fatal(err)
	}
	third := fakeQuietLeecher(t, ih)
	hs, err := wire.MarshalExtendedHandshake(wire.ExtendedHandshake{PexID: 7})
	if err != nil {
		t.Fatal(err)
	}
	ap := netip.MustParseAddrPort(third)
	pex, err := wire.MarshalPex(wire.PexMessage{Added: []wire.PexPeer{{IP: ap.Addr().AsSlice(), Port: ap.Port()}}})
	if err != nil {
		t.Fatal(err)
	}
	gossiper := fakePeer(t, ih, true,
		&wire.Message{Type: wire.MsgExtended, Block: wire.ExtendedPayload(wire.ExtHandshakeID, hs)},
		&wire.Message{Type: wire.MsgExtended, Block: wire.ExtendedPayload(7, pex)})

	n := startNode(t, Config{Torrent: tor, DisableTrackerPeers: true, Bootstrap: []string{gossiper}})
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(n.knownAddrs(), third); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node never learned %s from gossip under sub-ID 7; knows %v", third, n.knownAddrs())
		}
	}

	registerPeer(t, announce, ih, gossiper, 'g')
	results, err := Probe(tor, ProbeConfig{
		DialTimeout:  2 * time.Second,
		BitfieldWait: 300 * time.Millisecond,
		PEX:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Addr == third {
			return
		}
	}
	t.Fatalf("probe never reached %s from gossip under sub-ID 7; results %+v", third, results)
}
