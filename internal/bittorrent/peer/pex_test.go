package peer

import (
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
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
