package peer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/bittorrent/wire"
)

// makeTorrent builds a torrent + content over the given tracker URL.
func makeTorrent(t *testing.T, announce string, files []metainfo.File, pieceLen int64, seed int64) (*metainfo.Torrent, []byte) {
	t.Helper()
	var total int64
	for _, f := range files {
		total += f.Length
	}
	content := make([]byte, total)
	rand.New(rand.NewSource(seed)).Read(content)
	info, err := metainfo.New("test-content", pieceLen, files, content)
	if err != nil {
		t.Fatal(err)
	}
	return &metainfo.Torrent{Announce: announce, Info: *info}, content
}

// startTracker runs a tracker on loopback and returns its announce URL.
func startTracker(t *testing.T) string {
	t.Helper()
	srv := tracker.NewServer()
	ln, closeFn, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = closeFn() })
	return "http://" + ln.Addr().String() + "/announce"
}

// recordingTracker answers every announce with an empty peer list and
// hands each announce's query to the returned channel.
func recordingTracker(t *testing.T) (announce string, queries <-chan url.Values) {
	t.Helper()
	ch := make(chan url.Values, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case ch <- r.URL.Query():
		default:
		}
		_, _ = io.WriteString(w, "d8:intervali30e5:peers0:e")
	}))
	t.Cleanup(ts.Close)
	return ts.URL + "/announce", ch
}

// TestNodeAnnouncesOwnAddress: a node does not tell the tracker an
// address of its choosing; the tracker registers the one the announce
// came from, so a node on a public address is listed under it.
func TestNodeAnnouncesOwnAddress(t *testing.T) {
	announce, queries := recordingTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 4096}}, 1024, 12)
	startNode(t, Config{Torrent: tor, Content: content})
	select {
	case q := <-queries:
		if q.Has("ip") {
			t.Fatalf("node announced ip=%q", q.Get("ip"))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node never announced")
	}
}

// startNode creates and starts a node, registering cleanup.
func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	cfg.AnnounceInterval = 200 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func waitDone(t *testing.T, n *Node, timeout time.Duration) {
	t.Helper()
	select {
	case <-n.Done():
	case <-time.After(timeout):
		have, total := n.Progress()
		t.Fatalf("download did not complete in %v (%d/%d pieces, %d conns)",
			timeout, have, total, n.NumConns())
	}
}

func TestSeederLeecherTransfer(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 64 * 1024}}, 8*1024, 1)

	seeder := startNode(t, Config{Torrent: tor, Content: content})
	if !seeder.Complete() {
		t.Fatal("seeder must start complete")
	}
	leecher := startNode(t, Config{Torrent: tor})
	waitDone(t, leecher, 15*time.Second)
	if !bytes.Equal(leecher.Bytes(), content) {
		t.Fatal("downloaded content differs from original")
	}
	if leecher.BytesLeft() != 0 {
		t.Fatalf("bytes left %d", leecher.BytesLeft())
	}
}

func TestBundleTransferMultiFile(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce, []metainfo.File{
		{Path: "ep1.avi", Length: 20000},
		{Path: "ep2.avi", Length: 30000},
		{Path: "ep3.avi", Length: 10000},
	}, 4096, 2)
	if !tor.Info.IsBundle() {
		t.Fatal("expected a bundle")
	}
	seeder := startNode(t, Config{Torrent: tor, Content: content})
	_ = seeder
	leechers := make([]*Node, 3)
	for i := range leechers {
		leechers[i] = startNode(t, Config{Torrent: tor})
	}
	for i, l := range leechers {
		waitDone(t, l, 20*time.Second)
		if !bytes.Equal(l.Bytes(), content) {
			t.Fatalf("leecher %d content mismatch", i)
		}
	}
}

func TestLeecherWaitsForPublisher(t *testing.T) {
	// The availability phenomenon in miniature: a leecher alone makes no
	// progress; once the publisher (seeder) appears, it completes.
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 32 * 1024}}, 4096, 3)

	leecher := startNode(t, Config{Torrent: tor})
	time.Sleep(500 * time.Millisecond)
	if have, _ := leecher.Progress(); have != 0 {
		t.Fatalf("leecher acquired %d pieces with no seed", have)
	}
	select {
	case <-leecher.Done():
		t.Fatal("leecher claims completion with no seed")
	default:
	}

	startNode(t, Config{Torrent: tor, Content: content})
	waitDone(t, leecher, 15*time.Second)
	if !bytes.Equal(leecher.Bytes(), content) {
		t.Fatal("content mismatch after publisher returned")
	}
}

func TestPeersExchangeAfterSeederLeaves(t *testing.T) {
	// Seed a first leecher fully, stop the seeder, then verify a second
	// leecher can complete from the first (peer-sustained busy period).
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 48 * 1024}}, 4096, 4)

	seeder := startNode(t, Config{Torrent: tor, Content: content})
	first := startNode(t, Config{Torrent: tor})
	waitDone(t, first, 15*time.Second)
	seeder.Stop()

	second := startNode(t, Config{Torrent: tor})
	waitDone(t, second, 15*time.Second)
	if !bytes.Equal(second.Bytes(), content) {
		t.Fatal("content mismatch from peer-only download")
	}
}

func TestMonitoringProbeClassifiesSeeds(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 24 * 1024}}, 4096, 5)

	seeder := startNode(t, Config{Torrent: tor, Content: content})
	leecher := startNode(t, Config{Torrent: tor})
	waitDone(t, leecher, 15*time.Second)

	// Give the "completed" announce a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	var results []ProbeResult
	for time.Now().Before(deadline) {
		var err error
		results, err = Probe(tor, ProbeConfig{DialTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) >= 2 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if len(results) < 2 {
		t.Fatalf("probe saw %d peers, want ≥2", len(results))
	}
	seeds := 0
	for _, r := range results {
		if r.Seed {
			seeds++
		}
		if r.Pieces != tor.Info.NumPieces() && r.Seed {
			t.Fatalf("seed with %d pieces", r.Pieces)
		}
	}
	if seeds < 2 { // both the original seeder and the completed leecher
		t.Fatalf("probe found %d seeds, want 2 (results %+v)", seeds, results)
	}
	_ = seeder
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil torrent accepted")
	}
	announce := "http://127.0.0.1:1/announce"
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 1024}}, 256, 6)
	// Wrong-length content.
	if _, err := New(Config{Torrent: tor, Content: content[:100]}); err == nil {
		t.Fatal("short content accepted")
	}
	// Corrupted content.
	bad := append([]byte(nil), content...)
	bad[0] ^= 0xFF
	if _, err := New(Config{Torrent: tor, Content: bad}); err == nil {
		t.Fatal("corrupt content accepted")
	}
}

func TestStopIsIdempotent(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 4096}}, 1024, 7)
	n := startNode(t, Config{Torrent: tor, Content: content})
	n.Stop()
	n.Stop() // must not panic or deadlock
}

func TestGenerousPolicyUnchanged(t *testing.T) {
	// Interest is answered with an immediate unchoke: a node never
	// chokes, so nothing ranks peers by reciprocation.
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 8 * 1024}}, 4096, 207)
	seeder := startNode(t, Config{Torrent: tor, Content: content})

	c, err := net.Dial("tcp", seeder.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ih, _ := tor.Info.Hash()
	_ = wire.WriteHandshake(c, wire.Handshake{InfoHash: ih, PeerID: [20]byte{7}})
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	_ = wire.WriteMessage(c, &wire.Message{Type: wire.MsgBitfield, Bitfield: wire.NewBitfield(2)})
	_ = wire.WriteMessage(c, &wire.Message{Type: wire.MsgInterested})
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		m, err := wire.ReadMessage(c)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil && m.Type == wire.MsgUnchoke {
			return
		}
	}
}

func TestTrackerSeesSeedTransition(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, 4096, 8)
	seeder := startNode(t, Config{Torrent: tor, Content: content})
	leecher := startNode(t, Config{Torrent: tor})
	waitDone(t, leecher, 15*time.Second)
	_ = seeder

	// After completion the leecher re-announces as a seed; the tracker's
	// scrape counters should eventually show 2 seeds.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := tracker.AnnounceWith(nil, nil, tracker.AnnounceRequest{
			TrackerURL: tor.Announce,
			InfoHash:   leecher.InfoHash(),
			PeerID:     [20]byte{1, 2, 3},
			Port:       9999,
			Left:       1,
		})
		if err == nil && resp.Seeders >= 2 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("tracker never observed two seeds")
}

func TestDialTimeoutKnob(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 4096}}, 1024, 9)
	seeder := startNode(t, Config{Torrent: tor, Content: content})

	// A custom dialer observes the timeout the node passes through.
	timeouts := make(chan time.Duration, 8)
	leecher := startNode(t, Config{
		Torrent:     tor,
		DialTimeout: 123 * time.Millisecond,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			timeouts <- timeout
			return net.DialTimeout(network, addr, timeout)
		},
		Bootstrap: []string{seeder.Addr()},
	})
	waitDone(t, leecher, 15*time.Second)
	select {
	case got := <-timeouts:
		if got != 123*time.Millisecond {
			t.Fatalf("dialer saw timeout %v, want 123ms", got)
		}
	default:
		t.Fatal("custom dialer never invoked")
	}

	// The zero value defaults to DefaultDialTimeout.
	n, err := New(Config{Torrent: tor})
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.DialTimeout != DefaultDialTimeout {
		t.Fatalf("default dial timeout %v, want %v", n.cfg.DialTimeout, DefaultDialTimeout)
	}
}

func TestAnnounceRetriesThroughOutage(t *testing.T) {
	// The tracker is unreachable for the node's first announces; backoff
	// retries must land the registration once it comes back.
	srv := tracker.NewServer()
	ln, closeFn, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = closeFn() })
	announce := "http://" + ln.Addr().String() + "/announce"
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 4096}}, 1024, 10)

	var mu sync.Mutex
	down := true
	failures := make(chan struct{}, 64)
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		defer mu.Unlock()
		if down {
			select {
			case failures <- struct{}{}:
			default:
			}
			return nil, errors.New("injected: tracker down")
		}
		return http.DefaultTransport.RoundTrip(r)
	})

	var logMu sync.Mutex
	var logs []string
	n, err := New(Config{
		Torrent:          tor,
		Content:          content,
		AnnounceInterval: 100 * time.Millisecond,
		HTTPClient:       &http.Client{Transport: rt},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	// Wait for a couple of failed attempts, then restore the tracker.
	for i := 0; i < 2; i++ {
		select {
		case <-failures:
		case <-time.After(5 * time.Second):
			t.Fatal("node never attempted to announce")
		}
	}
	mu.Lock()
	down = false
	mu.Unlock()

	ih, _ := tor.Info.Hash()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, _ := srv.Counts(ih); s == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("announce never landed after the outage healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The tracker registers the peer before the client goroutine gets to
	// log "recovered", so give the log a moment to catch up.
	checkLogs := func() (sawTemp, sawRecover bool) {
		logMu.Lock()
		defer logMu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, "temporary") {
				sawTemp = true
			}
			if strings.Contains(l, "recovered") {
				sawRecover = true
			}
		}
		return
	}
	for {
		sawTemp, sawRecover := checkLogs()
		if sawTemp && sawRecover {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("logs missed the outage story (temporary=%v recovered=%v)",
				sawTemp, sawRecover)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestDialBackoffSkipsDeadPeer(t *testing.T) {
	announce := startTracker(t)
	tor, _ := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 4096}}, 1024, 11)

	var dials atomic.Int32
	n, err := New(Config{
		Torrent:     tor,
		DialTimeout: 50 * time.Millisecond,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("injected: unreachable")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ten discovery rounds at a dead address: the backoff window must
	// swallow most of them (without backoff this would be 10 dials).
	dead := []string{"127.0.0.1:1"}
	for i := 0; i < 10; i++ {
		n.dialAddrs(dead)
		time.Sleep(20 * time.Millisecond)
	}
	n.wg.Wait()
	if got := dials.Load(); got >= 5 {
		t.Fatalf("%d dials in 10 rounds, want backoff to suppress most", got)
	}
}

// TestNodeDropsMisSizedBitfield: BEP 3 sizes a bitfield at
// (numPieces+7)/8 bytes. A peer that sends one byte short is refused:
// the node hangs up and forgets the connection.
func TestNodeDropsMisSizedBitfield(t *testing.T) {
	announce := startTracker(t)
	tor, content := makeTorrent(t, announce,
		[]metainfo.File{{Path: "f.bin", Length: 64 * 1024}}, 4096, 11) // 16 pieces, 2 bytes
	n := startNode(t, Config{Torrent: tor, Content: content})

	c := dialRaw(t, n)
	if err := wire.WriteMessage(c, &wire.Message{Type: wire.MsgBitfield, Bitfield: wire.Bitfield{0xff}}); err != nil {
		t.Fatal(err)
	}
	var err error
	for {
		if _, err = wire.ReadMessage(c); err != nil {
			break
		}
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("after a 1-byte bitfield for 16 pieces the node's side read %v, want EOF", err)
	}
	for deadline := time.Now().Add(5 * time.Second); n.NumConns() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node still holds %d connections", n.NumConns())
		}
	}
}
