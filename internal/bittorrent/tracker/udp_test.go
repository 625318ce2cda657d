package tracker

import (
	"bytes"
	"encoding/hex"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
)

// startUDPTracker runs a BEP 15 listener over srv and returns its
// udp:// URL.
func startUDPTracker(t testing.TB, srv *Server) string {
	t.Helper()
	pc, closeFn, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { _ = closeFn() })
	return "udp://" + pc.LocalAddr().String()
}

func testUDPClient() *UDPClient {
	return &UDPClient{Timeout: 200 * time.Millisecond, MaxRetransmits: 2}
}

// ---------------------------------------------------------------------------
// Golden packet vectors: the exact bytes the BEP prescribes.

func TestUDPGoldenVectors(t *testing.T) {
	ih := testHash(0xAA)
	pid := testPeerID(0xBB)
	cases := []struct {
		name string
		got  []byte
		want string // hex
	}{
		{
			name: "connect request",
			got:  marshalConnectReq(0x01020304),
			want: "0000041727101980" + "00000000" + "01020304",
		},
		{
			name: "connect response",
			got:  marshalConnectResp(0x01020304, 0x1122334455667788),
			want: "00000000" + "01020304" + "1122334455667788",
		},
		{
			name: "announce request",
			got: marshalAnnounceReq(udpAnnounceReq{
				ConnID:     0x1122334455667788,
				Tx:         0x0A0B0C0D,
				InfoHash:   ih,
				PeerID:     pid,
				Downloaded: 1000,
				Left:       2000,
				Uploaded:   3000,
				Event:      udpEventStarted,
				IP:         0x7F000001,
				Key:        0xCAFEBABE,
				NumWant:    -1,
				Port:       6881,
			}),
			want: "1122334455667788" + "00000001" + "0a0b0c0d" +
				strings.Repeat("aa", 20) + strings.Repeat("bb", 20) +
				"00000000000003e8" + "00000000000007d0" + "0000000000000bb8" +
				"00000002" + "7f000001" + "cafebabe" + "ffffffff" + "1ae1",
		},
		{
			name: "announce response",
			got: marshalAnnounceResp(0x0A0B0C0D, 1800*time.Second, 2, 3,
				[]byte{127, 0, 0, 1, 0x1a, 0xe1}),
			want: "00000001" + "0a0b0c0d" + "00000708" + "00000002" + "00000003" +
				"7f0000011ae1",
		},
		{
			name: "scrape request",
			got:  marshalScrapeReq(0x1122334455667788, 0x0A0B0C0D, []metainfo.InfoHash{ih}),
			want: "1122334455667788" + "00000002" + "0a0b0c0d" + strings.Repeat("aa", 20),
		},
		{
			name: "scrape response",
			got:  marshalScrapeResp(0x0A0B0C0D, []ScrapeCount{{Seeders: 1, Completed: 2, Leechers: 3}}),
			want: "00000002" + "0a0b0c0d" + "00000001" + "00000002" + "00000003",
		},
		{
			name: "error response",
			got:  marshalErrorResp(0x0A0B0C0D, "nope"),
			want: "00000003" + "0a0b0c0d" + hex.EncodeToString([]byte("nope")),
		},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatalf("%s: bad vector: %v", tc.name, err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, tc.got, want)
		}
	}
}

func TestUDPAnnounceReqRoundTrip(t *testing.T) {
	in := udpAnnounceReq{
		ConnID: 7, Tx: 9, InfoHash: testHash(1), PeerID: testPeerID(2),
		Downloaded: 10, Left: 20, Uploaded: 30,
		Event: udpEventCompleted, IP: 0x01020304, Key: 5, NumWant: 42, Port: 999,
	}
	out, ok := parseAnnounceReq(marshalAnnounceReq(in))
	if !ok {
		t.Fatal("parseAnnounceReq rejected its own marshal")
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

// ---------------------------------------------------------------------------
// Server/client end-to-end.

func TestUDPAnnounceAndScrape(t *testing.T) {
	srv := NewServer()
	u := startUDPTracker(t, srv)
	uc := testUDPClient()
	ih := testHash(3)

	// A seed and a leecher join.
	if _, err := uc.Announce(AnnounceRequest{
		TrackerURL: u, InfoHash: ih, PeerID: testPeerID(1), Port: 7001,
		Left: 0, Event: "started", IP: "127.0.0.1",
	}); err != nil {
		t.Fatalf("seed announce: %v", err)
	}
	resp, err := uc.Announce(AnnounceRequest{
		TrackerURL: u, InfoHash: ih, PeerID: testPeerID(2), Port: 7002,
		Left: 500, Event: "started", IP: "127.0.0.1",
	})
	if err != nil {
		t.Fatalf("leecher announce: %v", err)
	}
	if resp.Seeders != 1 || resp.Leechers != 1 {
		t.Fatalf("got seeders=%d leechers=%d, want 1/1", resp.Seeders, resp.Leechers)
	}
	found := false
	for _, p := range resp.Peers {
		if p.String() == "127.0.0.1:7001" {
			found = true
		}
	}
	if !found {
		t.Fatalf("peer list %v misses the seed 127.0.0.1:7001", resp.Peers)
	}

	counts, err := uc.Scrape(u, []metainfo.InfoHash{ih})
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if len(counts) != 1 || counts[0].Seeders != 1 || counts[0].Leechers != 1 {
		t.Fatalf("scrape got %+v, want one entry with 1 seeder / 1 leecher", counts)
	}

	// Completing flips the leecher to a seed and bumps downloads.
	if _, err := uc.Announce(AnnounceRequest{
		TrackerURL: u, InfoHash: ih, PeerID: testPeerID(2), Port: 7002,
		Left: 0, Event: "completed", IP: "127.0.0.1",
	}); err != nil {
		t.Fatalf("completed announce: %v", err)
	}
	counts, err = uc.Scrape(u, []metainfo.InfoHash{ih})
	if err != nil {
		t.Fatalf("scrape after completed: %v", err)
	}
	if counts[0].Seeders != 2 || counts[0].Completed != 1 {
		t.Fatalf("after completed: %+v, want 2 seeders / 1 completed", counts[0])
	}
}

func TestUDPConnIDExpiryReconnect(t *testing.T) {
	srv := NewServer()
	var skew atomic.Int64 // server clock offset, read by the serve goroutine
	srv.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	u := startUDPTracker(t, srv)
	uc := testUDPClient()
	ih := testHash(4)

	if _, err := uc.Announce(AnnounceRequest{
		TrackerURL: u, InfoHash: ih, PeerID: testPeerID(1), Port: 7001,
		Left: 0, IP: "127.0.0.1",
	}); err != nil {
		t.Fatalf("first announce: %v", err)
	}

	// The server's clock jumps past the 2-minute TTL; the client still
	// holds its cached id (its own clock is real time, inside the
	// 1-minute reuse window) — the announce must transparently
	// reconnect, not fail.
	skew.Store(int64(udpConnIDTTL + time.Second))
	if _, err := uc.Announce(AnnounceRequest{
		TrackerURL: u, InfoHash: ih, PeerID: testPeerID(1), Port: 7001,
		Left: 0, IP: "127.0.0.1",
	}); err != nil {
		t.Fatalf("announce after server-side expiry: %v", err)
	}
}

func TestUDPAnnounceTimeoutIsTemporary(t *testing.T) {
	// A bound-but-unserved socket: every request times out.
	srv := NewServer()
	pc, closeFn, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	_ = closeFn()

	uc := &UDPClient{Timeout: 30 * time.Millisecond, MaxRetransmits: 1}
	_, err = uc.Announce(AnnounceRequest{
		TrackerURL: "udp://" + addr, InfoHash: testHash(5), PeerID: testPeerID(1),
		Port: 7001, IP: "127.0.0.1",
	})
	if err == nil {
		t.Fatal("announce to a dead tracker succeeded")
	}
	if !IsTemporary(err) {
		t.Fatalf("timeout should classify as temporary, got %v", err)
	}
}

func TestUDPBadEventRejected(t *testing.T) {
	uc := testUDPClient()
	_, err := uc.Announce(AnnounceRequest{
		TrackerURL: "udp://127.0.0.1:1", InfoHash: testHash(6), PeerID: testPeerID(1),
		Event: "bogus",
	})
	if err == nil || IsTemporary(err) {
		t.Fatalf("unknown event should fail fatally, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// HTTP-vs-UDP parity: both front ends answer from the same swarm state,
// so identical state must yield identical counts and peer sets.

func TestUDPHTTPAnnounceParity(t *testing.T) {
	srv, httpURL, client := startTestTracker(t)
	udpURL := startUDPTracker(t, srv)
	uc := testUDPClient()
	ih := testHash(7)

	// Populate one swarm over HTTP: 2 seeds, 3 leechers.
	for i := 0; i < 5; i++ {
		left := int64(0)
		if i >= 2 {
			left = 1000
		}
		if _, err := AnnounceWith(client, nil, AnnounceRequest{
			TrackerURL: httpURL, InfoHash: ih, PeerID: testPeerID(byte(10 + i)),
			Port: 7100 + i, Left: left, Event: "started", IP: "127.0.0.1",
		}); err != nil {
			t.Fatalf("populate %d: %v", i, err)
		}
	}

	observe := func(trackerURL string, viaUDP bool, port int) *AnnounceResponse {
		req := AnnounceRequest{
			TrackerURL: trackerURL, InfoHash: ih, PeerID: testPeerID(99),
			Port: port, Left: 1000, NumWant: 50, IP: "127.0.0.1",
		}
		var resp *AnnounceResponse
		var err error
		if viaUDP {
			resp, err = uc.Announce(req)
		} else {
			resp, err = AnnounceWith(client, nil, req)
		}
		if err != nil {
			t.Fatalf("observer announce (udp=%v): %v", viaUDP, err)
		}
		// Deregister so the next observation sees pristine state.
		req.Event = "stopped"
		if viaUDP {
			_, err = uc.Announce(req)
		} else {
			_, err = AnnounceWith(client, nil, req)
		}
		if err != nil {
			t.Fatalf("observer stop (udp=%v): %v", viaUDP, err)
		}
		return resp
	}

	udpResp := observe(udpURL, true, 7999)
	httpResp := observe(httpURL, false, 7999)

	if udpResp.Seeders != httpResp.Seeders || udpResp.Leechers != httpResp.Leechers {
		t.Fatalf("parity broken: udp %d/%d vs http %d/%d (seeders/leechers)",
			udpResp.Seeders, udpResp.Leechers, httpResp.Seeders, httpResp.Leechers)
	}
	// 2 seeds, 3 populated leechers, plus the observer itself (both
	// front ends count the announcer, maintaining parity).
	if udpResp.Seeders != 2 || udpResp.Leechers != 4 {
		t.Fatalf("got %d seeders / %d leechers, want 2/4", udpResp.Seeders, udpResp.Leechers)
	}
	peerSet := func(r *AnnounceResponse) []string {
		out := make([]string, 0, len(r.Peers))
		for _, p := range r.Peers {
			out = append(out, p.String())
		}
		sort.Strings(out)
		return out
	}
	u, h := peerSet(udpResp), peerSet(httpResp)
	if len(u) != len(h) {
		t.Fatalf("peer set sizes differ: udp %v vs http %v", u, h)
	}
	for i := range u {
		if u[i] != h[i] {
			t.Fatalf("peer sets differ: udp %v vs http %v", u, h)
		}
	}
}

// ---------------------------------------------------------------------------
// Fuzz: no packet may panic the server's handler or the client parsers.

func FuzzUDPTrackerPacket(f *testing.F) {
	f.Add(marshalConnectReq(1))
	f.Add(marshalAnnounceReq(udpAnnounceReq{ConnID: 1, Tx: 2, NumWant: -1}))
	f.Add(marshalScrapeReq(1, 2, []metainfo.InfoHash{testHash(1)}))
	f.Add(marshalConnectResp(1, 2))
	f.Add(marshalAnnounceResp(1, time.Second, 2, 3, []byte{1, 2, 3, 4, 5, 6}))
	f.Add(marshalScrapeResp(1, []ScrapeCount{{1, 2, 3}}))
	f.Add(marshalErrorResp(1, "x"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 98))

	srv := NewServer()
	from := mustUDPAddr("127.0.0.1:9999")
	f.Fuzz(func(t *testing.T, p []byte) {
		_ = srv.handleUDPPacket(p, from)
		_, _ = parseConnectResp(p)
		_, _ = parseAnnounceResp(p)
		_, _ = parseScrapeResp(p)
		_, _, _ = udpRespHeader(p)
		_, _ = parseAnnounceReq(p)
		_, _, _, _ = parseScrapeReq(p)
		_, _ = parseConnectReq(p)
	})
}

func mustUDPAddr(s string) *net.UDPAddr {
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		panic(err)
	}
	return a
}

// ---------------------------------------------------------------------------
// Benchmark: one announce exchange over loopback (connect amortised by
// the client's connection-id cache).

func BenchmarkUDPAnnounce(b *testing.B) {
	srv := NewServer()
	u := startUDPTracker(b, srv)
	uc := &UDPClient{Timeout: time.Second, MaxRetransmits: 1}
	ih := testHash(9)
	req := AnnounceRequest{
		TrackerURL: u, InfoHash: ih, PeerID: testPeerID(1), Port: 7001,
		Left: 100, IP: "127.0.0.1", NumWant: 50,
	}
	if _, err := uc.Announce(req); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uc.Announce(req); err != nil {
			b.Fatalf("announce: %v", err)
		}
	}
}
