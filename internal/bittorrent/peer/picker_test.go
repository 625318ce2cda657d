package peer

import (
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/wire"
	"swarmavail/internal/faultnet"
)

// liveSwarm starts a tracker, a publisher and six leechers of a torrent
// of 64 pieces of 4 KiB, every connection paced at 128 KB/s each way.
func liveSwarm(t *testing.T) (pub *Node, leechers []*Node, size int64) {
	t.Helper()
	tor, content := makeTorrent(t, startTracker(t),
		[]metainfo.File{{Path: "f.bin", Length: 64 * 4096}}, 4096, 41)
	fnet := faultnet.New(faultnet.Config{BandwidthKBps: 128})
	cfg := Config{Torrent: tor, Dial: fnet.Dial, Listen: func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return fnet.Listener(ln), nil
	}}
	pubCfg := cfg
	pubCfg.Content = content
	pub = startNode(t, pubCfg)
	for range 6 {
		leechers = append(leechers, startNode(t, cfg))
	}
	return pub, leechers, int64(len(content))
}

// TestPublisherUploadsFewCopies: leechers that pick rarest-first over
// their connections ask the publisher for different pieces and trade the
// rest among themselves, so the publisher uploads far fewer copies than
// there are leechers. Picking the lowest index, every leecher asks it
// for the same prefix and it uploads one copy each.
func TestPublisherUploadsFewCopies(t *testing.T) {
	t.Parallel() // the two live swarms share no state and mostly wait on pacing
	pub, leechers, size := liveSwarm(t)
	start := time.Now()
	for _, l := range leechers {
		waitDone(t, l, 20*time.Second)
	}
	copies := float64(pub.uploaded.Load()) / float64(size)
	t.Logf("%d leechers finished in %v; the publisher uploaded %.2f copies",
		len(leechers), time.Since(start).Round(time.Millisecond), copies)
	if copies >= 3 {
		t.Fatalf("the publisher uploaded %.2f copies to %d leechers, want fewer than 3", copies, len(leechers))
	}
}

// TestLeechersHoldContentAfterPublisherLeaves: the publisher leaves once
// it has uploaded 1.5 copies. What the leechers then hold between them is
// what they can still finish from each other; rarest-first spreads those
// uploads over nearly every piece.
func TestLeechersHoldContentAfterPublisherLeaves(t *testing.T) {
	t.Parallel() // the two live swarms share no state and mostly wait on pacing
	pub, leechers, size := liveSwarm(t)
	for deadline := time.Now().Add(20 * time.Second); pub.uploaded.Load() < size*3/2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the publisher uploaded %d bytes, never 1.5 copies", pub.uploaded.Load())
		}
	}
	pub.Stop()
	numPieces := pub.info.NumPieces()
	// Pieces written before the publisher stopped may still be on the
	// way: wait for the leechers to trade the union among themselves.
	var union wire.Bitfield
	full := 0
	for deadline := time.Now().Add(3 * time.Second); full < len(leechers) && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		union, full = wire.NewBitfield(numPieces), 0
		for _, l := range leechers {
			l.mu.Lock()
			for i := range numPieces {
				if l.have.Has(i) {
					union.Set(i)
				}
			}
			l.mu.Unlock()
		}
		for _, l := range leechers {
			if have, _ := l.Progress(); have == union.Count(numPieces) {
				full++
			}
		}
	}
	got := union.Count(numPieces)
	t.Logf("after the publisher left at 1.5 copies the leechers' union holds %d of %d pieces; %d of %d leechers hold all of it",
		got, numPieces, full, len(leechers))
	if got < 56 {
		t.Fatalf("the leechers' union holds %d of %d pieces, want at least 56", got, numPieces)
	}
}

// dialRaw connects to n as a bare peer and completes the handshake; it
// sends no bitfield.
func dialRaw(t *testing.T, n *Node) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: n.InfoHash(), PeerID: [20]byte{'r', 'a', 'w'}}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCopiesMatchRecount: the node's per-piece counts follow its
// connections through bitfields, haves, refused late bitfields and
// drops, and always equal a recount over the connections it holds.
func TestCopiesMatchRecount(t *testing.T) {
	tor, content := makeTorrent(t, startTracker(t),
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 1024, 43)
	n := startNode(t, Config{Torrent: tor, Content: content}) // a seeder asks for nothing
	numPieces := tor.Info.NumPieces()
	rng := rand.New(rand.NewSource(1))
	want := make([]int, numPieces) // what the raw peers below announced
	send := func(c net.Conn, m *wire.Message) {
		if err := wire.WriteMessage(c, m); err != nil {
			t.Fatal(err)
		}
	}
	have := func(c net.Conn, bf wire.Bitfield, i int) {
		send(c, &wire.Message{Type: wire.MsgHave, Index: uint32(i)})
		if !bf.Has(i) {
			bf.Set(i)
			want[i]++
		}
	}
	forget := func(bf wire.Bitfield) {
		for i := range numPieces {
			if bf.Has(i) {
				want[i]--
			}
		}
	}
	check := func(step string, conns int) {
		t.Helper()
		var got, recount []int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			n.mu.Lock()
			live := n.connsBut(nil)
			n.mu.Unlock()
			recount = make([]int, numPieces)
			for _, c := range live {
				c.mu.Lock()
				for i := range numPieces {
					if c.remote.have.Has(i) {
						recount[i]++
					}
				}
				c.mu.Unlock()
			}
			n.mu.Lock()
			got = slices.Clone(n.copies)
			n.mu.Unlock()
			if len(live) == conns && slices.Equal(got, recount) && slices.Equal(got, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d conns, want %d; copies %v, recount %v, announced %v",
					step, len(live), conns, got, recount, want)
			}
		}
	}

	conns := make([]net.Conn, 4)
	bfs := make([]wire.Bitfield, 4)
	for k := range conns {
		conns[k], bfs[k] = dialRaw(t, n), wire.NewBitfield(numPieces)
		for i := range numPieces {
			if rng.Intn(2) == 0 {
				bfs[k].Set(i)
				want[i]++
			}
		}
		send(conns[k], &wire.Message{Type: wire.MsgBitfield, Bitfield: bfs[k]})
	}
	check("bitfields", 4)
	for k := range conns {
		for range 4 {
			have(conns[k], bfs[k], rng.Intn(numPieces))
		}
	}
	check("haves", 4)
	// A second bitfield is refused and its sender dropped; a clean close
	// is a drop too. Neither leaves a copy behind.
	send(conns[0], &wire.Message{Type: wire.MsgBitfield, Bitfield: wire.NewBitfield(numPieces)})
	forget(bfs[0])
	_ = conns[1].Close()
	forget(bfs[1])
	check("drops", 2)
	// A bitfield after a have is refused as well.
	late := dialRaw(t, n)
	lateBf := wire.NewBitfield(numPieces)
	have(late, lateBf, 5)
	check("have before bitfield", 3)
	send(late, &wire.Message{Type: wire.MsgBitfield, Bitfield: wire.NewBitfield(numPieces)})
	forget(lateBf)
	check("bitfield after have", 2)
}

// TestChokeReoffersClaims: when a remote chokes us, the pieces we had
// requested from it go straight to another connection with room in its
// pipeline, rather than waiting for that connection's next event.
func TestChokeReoffersClaims(t *testing.T) {
	tor, _ := makeTorrent(t, startTracker(t),
		[]metainfo.File{{Path: "f.bin", Length: 3 * 1024}}, 1024, 44) // 3 pieces
	n := startNode(t, Config{Torrent: tor})
	full := wire.Bitfield{0xe0}
	nextRequest := func(c net.Conn) int {
		t.Helper()
		_ = c.SetReadDeadline(time.Now().Add(3 * time.Second))
		for {
			m, err := wire.ReadMessage(c)
			if err != nil {
				t.Fatalf("no request arrived: %v", err)
			}
			if m != nil && m.Type == wire.MsgRequest {
				return int(m.Index)
			}
		}
	}
	seed := func() net.Conn {
		c := dialRaw(t, n)
		for _, m := range []*wire.Message{{Type: wire.MsgBitfield, Bitfield: full}, {Type: wire.MsgUnchoke}} {
			if err := wire.WriteMessage(c, m); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	a := seed()
	fromA := []int{nextRequest(a), nextRequest(a)} // a full pipeline
	b := seed()
	nextRequest(b) // the third piece; b has room for one more
	if err := wire.WriteMessage(a, &wire.Message{Type: wire.MsgChoke}); err != nil {
		t.Fatal(err)
	}
	if got := nextRequest(b); !slices.Contains(fromA, got) {
		t.Fatalf("after a's choke b was asked for piece %d, want one of a's %v", got, fromA)
	}
}
