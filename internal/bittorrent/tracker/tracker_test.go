package tracker

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/bencode"
	"swarmavail/internal/bittorrent/metainfo"
)

func testHash(b byte) metainfo.InfoHash {
	var h metainfo.InfoHash
	for i := range h {
		h[i] = b
	}
	return h
}

func testPeerID(b byte) [20]byte {
	var id [20]byte
	for i := range id {
		id[i] = b
	}
	return id
}

func startTestTracker(t *testing.T) (*Server, string, *http.Client) {
	t.Helper()
	s := NewServer()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL + "/announce", ts.Client()
}

func TestAnnounceRegistersAndLists(t *testing.T) {
	srv, announceURL, client := startTestTracker(t)
	ih := testHash(1)

	// A seed announces.
	resp, err := AnnounceWith(client, nil, AnnounceRequest{
		TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('a'),
		Port: 7001, Left: 0, Event: "started", IP: "127.0.0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FailureMsg != "" {
		t.Fatalf("failure: %s", resp.FailureMsg)
	}
	if resp.Seeders != 1 || resp.Leechers != 0 {
		t.Fatalf("counts %d/%d", resp.Seeders, resp.Leechers)
	}
	if len(resp.Peers) != 0 {
		t.Fatalf("announcer should not see itself: %v", resp.Peers)
	}
	if resp.Interval != DefaultInterval {
		t.Fatalf("interval %v", resp.Interval)
	}

	// A leecher announces and should see the seed.
	resp, err = AnnounceWith(client, nil, AnnounceRequest{
		TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('b'),
		Port: 7002, Left: 1000, Event: "started", IP: "127.0.0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seeders != 1 || resp.Leechers != 1 {
		t.Fatalf("counts %d/%d", resp.Seeders, resp.Leechers)
	}
	if len(resp.Peers) != 1 || resp.Peers[0].Port != 7001 {
		t.Fatalf("peer list %v", resp.Peers)
	}
	if resp.Peers[0].String() != "127.0.0.1:7001" {
		t.Fatalf("peer addr %q", resp.Peers[0])
	}

	seeds, leechers := srv.Counts(ih)
	if seeds != 1 || leechers != 1 {
		t.Fatalf("server counts %d/%d", seeds, leechers)
	}
}

func TestAnnounceStoppedRemovesPeer(t *testing.T) {
	srv, announceURL, client := startTestTracker(t)
	ih := testHash(2)
	req := AnnounceRequest{
		TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('c'),
		Port: 7003, Left: 0, IP: "127.0.0.1",
	}
	if _, err := AnnounceWith(client, nil, req); err != nil {
		t.Fatal(err)
	}
	req.Event = "stopped"
	if _, err := AnnounceWith(client, nil, req); err != nil {
		t.Fatal(err)
	}
	if s, l := srv.Counts(ih); s != 0 || l != 0 {
		t.Fatalf("peer not removed: %d/%d", s, l)
	}
}

func TestCompletedTransitionsLeecherToSeed(t *testing.T) {
	srv, announceURL, client := startTestTracker(t)
	ih := testHash(3)
	req := AnnounceRequest{
		TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('d'),
		Port: 7004, Left: 500, IP: "127.0.0.1",
	}
	if _, err := AnnounceWith(client, nil, req); err != nil {
		t.Fatal(err)
	}
	if s, l := srv.Counts(ih); s != 0 || l != 1 {
		t.Fatalf("initial counts %d/%d", s, l)
	}
	req.Left = 0
	req.Event = "completed"
	if _, err := AnnounceWith(client, nil, req); err != nil {
		t.Fatal(err)
	}
	if s, l := srv.Counts(ih); s != 1 || l != 0 {
		t.Fatalf("post-completion counts %d/%d", s, l)
	}
}

func TestScrape(t *testing.T) {
	_, announceURL, client := startTestTracker(t)
	ih := testHash(4)
	for i, left := range []int64{0, 100, 100} {
		if _, err := AnnounceWith(client, nil, AnnounceRequest{
			TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID(byte('x' + i)),
			Port: 7100 + i, Left: left, IP: "127.0.0.1",
		}); err != nil {
			t.Fatal(err)
		}
	}
	scrapeURL := announceURL[:len(announceURL)-len("/announce")] + "/scrape?info_hash="
	resp, err := client.Get(scrapeURL + urlEscapeHash(ih))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	v, err := bencode.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	d, _ := bencode.AsDict(v)
	files, ok := d.Sub("files")
	if !ok {
		t.Fatalf("no files in scrape: %v", v)
	}
	entry, ok := files.Sub(string(ih[:]))
	if !ok {
		t.Fatalf("swarm missing from scrape: %v", files)
	}
	if c, _ := entry.Int("complete"); c != 1 {
		t.Fatalf("complete = %d", c)
	}
	if c, _ := entry.Int("incomplete"); c != 2 {
		t.Fatalf("incomplete = %d", c)
	}
}

// urlEscapeHash percent-encodes an infohash byte-for-byte.
func urlEscapeHash(h metainfo.InfoHash) string {
	out := make([]byte, 0, 60)
	const hex = "0123456789ABCDEF"
	for _, b := range h {
		out = append(out, '%', hex[b>>4], hex[b&0xF])
	}
	return string(out)
}

func TestAnnounceValidation(t *testing.T) {
	_, announceURL, client := startTestTracker(t)
	// Bad infohash (tracker answers with failure reason, not an error).
	resp, err := client.Get(announceURL + "?info_hash=short&peer_id=aaaaaaaaaaaaaaaaaaaa&port=7000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	parsed, err := ParseAnnounceResponse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if parsed.FailureMsg == "" {
		t.Fatal("bad info_hash accepted")
	}
}

func TestAnnounceFailureCases(t *testing.T) {
	_, announceURL, client := startTestTracker(t)
	ih := testHash(9)
	cases := []AnnounceRequest{
		{TrackerURL: announceURL, InfoHash: ih, Port: 0, IP: "127.0.0.1"},     // bad port
		{TrackerURL: announceURL, InfoHash: ih, Port: 70000, IP: "127.0.0.1"}, // bad port
		{TrackerURL: announceURL, InfoHash: ih, Port: 7000, IP: "not-an-ip"},  // bad ip
	}
	for i, req := range cases {
		req.PeerID = testPeerID('z')
		resp, err := AnnounceWith(client, nil, req)
		if err == nil {
			t.Fatalf("case %d accepted", i)
		}
		var te *Error
		if !errors.As(err, &te) || te.Temporary || te.Reason == "" {
			t.Errorf("case %d: error %v, want fatal tracker.Error with a reason", i, err)
		}
		if IsTemporary(err) {
			t.Errorf("case %d: in-band rejection classified temporary", i)
		}
		// The in-band reason stays readable on the response too.
		if resp == nil || resp.FailureMsg == "" {
			t.Errorf("case %d: FailureMsg not preserved", i)
		}
	}
}

func TestAnnounceErrorClassification(t *testing.T) {
	ih := testHash(11)
	valid := func(url string) AnnounceRequest {
		return AnnounceRequest{TrackerURL: url, InfoHash: ih,
			PeerID: testPeerID('c'), Port: 7000, IP: "127.0.0.1"}
	}

	// Unreachable tracker: temporary.
	_, err := AnnounceWith(nil, nil, valid("http://127.0.0.1:1/announce"))
	if err == nil || !IsTemporary(err) {
		t.Fatalf("unreachable tracker: %v, want temporary", err)
	}

	// 5xx: temporary. 404: fatal. Garbage body: temporary.
	for _, tc := range []struct {
		status    int
		body      string
		temporary bool
	}{
		{http.StatusServiceUnavailable, "down", true},
		{http.StatusNotFound, "no such tracker", false},
		{http.StatusOK, "this is not bencode", true},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
			_, _ = io.WriteString(w, tc.body)
		}))
		_, err := AnnounceWith(srv.Client(), nil, valid(srv.URL+"/announce"))
		if err == nil {
			t.Fatalf("status %d accepted", tc.status)
		}
		if IsTemporary(err) != tc.temporary {
			t.Errorf("status %d %q: IsTemporary=%v, want %v (err: %v)",
				tc.status, tc.body, IsTemporary(err), tc.temporary, err)
		}
		srv.Close()
	}

	// Unclassified errors default to temporary; nil is not an error.
	if !IsTemporary(errors.New("mystery")) {
		t.Fatal("unclassified error must default to temporary")
	}
	if IsTemporary(nil) {
		t.Fatal("nil classified as temporary failure")
	}
}

func TestPeerExpiry(t *testing.T) {
	srv, announceURL, client := startTestTracker(t)
	// Take control of time.
	now := time.Now()
	srv.now = func() time.Time { return now }
	ih := testHash(5)
	if _, err := AnnounceWith(client, nil, AnnounceRequest{
		TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('e'),
		Port: 7050, Left: 0, IP: "127.0.0.1",
	}); err != nil {
		t.Fatal(err)
	}
	if s, _ := srv.Counts(ih); s != 1 {
		t.Fatal("peer not registered")
	}
	// Advance time beyond the TTL; the next announce (by someone else)
	// triggers expiry.
	now = now.Add(5 * DefaultInterval)
	if _, err := AnnounceWith(client, nil, AnnounceRequest{
		TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('f'),
		Port: 7051, Left: 10, IP: "127.0.0.1",
	}); err != nil {
		t.Fatal(err)
	}
	if s, l := srv.Counts(ih); s != 0 || l != 1 {
		t.Fatalf("stale peer not expired: %d/%d", s, l)
	}
}

func TestParseAnnounceResponseErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("garbage"),
		[]byte("le"),               // not a dict
		[]byte("d8:intervali30ee"), // missing peers
		[]byte("d5:peers5:abcdee"), // peers not multiple of 6
	}
	for i, raw := range bad {
		if _, err := ParseAnnounceResponse(raw); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestServeStandalone(t *testing.T) {
	s := NewServer()
	ln, closeFn, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	url := "http://" + ln.Addr().String() + "/announce"
	resp, err := AnnounceWith(nil, nil, AnnounceRequest{
		TrackerURL: url, InfoHash: testHash(6), PeerID: testPeerID('g'),
		Port: 7060, Left: 0, IP: "127.0.0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seeders != 1 {
		t.Fatalf("standalone tracker counts: %+v", resp)
	}
}

// TestNumWantLimitsPeerList: numwant caps the list, and a numwant past
// the swarm — however large, up to MaxInt64 — lists every other peer.
func TestNumWantLimitsPeerList(t *testing.T) {
	_, announceURL, client := startTestTracker(t)
	ih := testHash(7)
	for i := 0; i < 10; i++ {
		if _, err := AnnounceWith(client, nil, AnnounceRequest{
			TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID(byte('A' + i)),
			Port: 7200 + i, Left: 100, IP: "127.0.0.1",
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ numWant, want int }{
		{3, 3}, {1000, 10}, {1537228672809129302, 10}, {math.MaxInt64, 10},
	} {
		resp, err := AnnounceWith(client, nil, AnnounceRequest{
			TrackerURL: announceURL, InfoHash: ih, PeerID: testPeerID('Z'),
			Port: 7300, Left: 100, NumWant: c.numWant, IP: "127.0.0.1",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Peers) != c.want {
			t.Fatalf("numwant=%d: %d peers, want %d", c.numWant, len(resp.Peers), c.want)
		}
	}
}

// TestAnnounceBodyCapExactEOF is the regression for the hand-rolled
// read loop that only checked the 1 MiB cap when Read returned a nil
// error: a final chunk delivered together with io.EOF was appended past
// the cap unchecked. The LimitReader-based read must reject an
// oversize body regardless of how the transport frames its chunks.
func TestAnnounceBodyCapExactEOF(t *testing.T) {
	oversize := make([]byte, maxAnnounceBody+10)
	for i := range oversize {
		oversize[i] = 'd' // never a valid bencode response
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Content-Length set: the whole body (cap overflow included)
		// arrives in final chunks paired with io.EOF.
		w.Header().Set("Content-Length", strconv.Itoa(len(oversize)))
		_, _ = w.Write(oversize)
	}))
	defer ts.Close()
	_, err := AnnounceWith(ts.Client(), nil, AnnounceRequest{
		TrackerURL: ts.URL, InfoHash: testHash(21), PeerID: testPeerID(1),
		Port: 7000, IP: "127.0.0.1",
	})
	if err == nil {
		t.Fatal("oversize announce body accepted")
	}
	var te *Error
	if !errors.As(err, &te) {
		t.Fatalf("want *tracker.Error, got %v", err)
	}
	if !strings.Contains(err.Error(), "too large") {
		t.Fatalf("want a too-large rejection, got %v", err)
	}
}

// TestAnnounceThreadsUploadedDownloaded verifies the client reports the
// request's real transfer counters instead of the old hardcoded "0"s.
func TestAnnounceThreadsUploadedDownloaded(t *testing.T) {
	var gotUploaded, gotDownloaded string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotUploaded = r.URL.Query().Get("uploaded")
		gotDownloaded = r.URL.Query().Get("downloaded")
		resp, _ := bencode.Encode(map[string]any{
			"interval": int64(60), "peers": "",
		})
		_, _ = w.Write(resp)
	}))
	defer ts.Close()
	_, err := AnnounceWith(ts.Client(), nil, AnnounceRequest{
		TrackerURL: ts.URL, InfoHash: testHash(22), PeerID: testPeerID(2),
		Port: 7000, IP: "127.0.0.1", Uploaded: 12345, Downloaded: 67890,
	})
	if err != nil {
		t.Fatalf("announce: %v", err)
	}
	if gotUploaded != "12345" || gotDownloaded != "67890" {
		t.Fatalf("tracker saw uploaded=%q downloaded=%q, want 12345/67890",
			gotUploaded, gotDownloaded)
	}
}
