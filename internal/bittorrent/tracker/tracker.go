// Package tracker implements a BitTorrent tracker — HTTP and UDP
// (BEP 15) front ends over one shared swarm registry — and the matching
// client announcers. The tracker keeps per-swarm peer lists, counts
// seeds ("complete") and leechers ("incomplete"), serves compact peer
// lists, and answers scrape requests — the §2 monitoring pipeline and
// bt tracker (cmd/bt) both use it over localhost.
package tracker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"swarmavail/internal/bittorrent/bencode"
	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/obs"
)

// DefaultInterval is the re-announce interval handed to clients.
const DefaultInterval = 30 * time.Second

// peerEntry is one registered peer in a swarm.
type peerEntry struct {
	id       [20]byte
	ip       net.IP
	port     uint16
	seed     bool
	lastSeen time.Time
}

// swarmState is the tracker-side state of one torrent.
type swarmState struct {
	peers     map[string]*peerEntry // key: peer id
	downloads int64                 // completed-download counter
}

// Server is a BitTorrent tracker. Create with NewServer, mount its
// HTTP Handler (or use Serve), and/or attach a BEP 15 UDP front end
// with ServeUDP/ListenUDP — both speak to the same swarm registry, so
// a swarm announced over one protocol is visible over the other.
type Server struct {
	mu       sync.Mutex
	swarms   map[metainfo.InfoHash]*swarmState
	interval time.Duration
	// PeerTTL expires peers that stopped announcing (crashed clients).
	peerTTL time.Duration
	now     func() time.Time

	// UDP connection-id table (BEP 15): id → expiry. Guarded by udpMu,
	// not mu — connect storms must not contend with announce handling.
	udpMu  sync.Mutex
	udpIDs map[uint64]time.Time

	// Instruments, set by Instrument; nil (no-op) until then.
	mAnnounces        *obs.Counter
	mAnnounceFailures *obs.Counter
	mScrapes          *obs.Counter
	mDownloads        *obs.Counter
	mUDPPackets       *obs.Counter
	mUDPConnects      *obs.Counter
	mUDPErrors        *obs.Counter
}

// NewServer returns a tracker with the default announce interval.
func NewServer() *Server {
	return &Server{
		swarms:   make(map[metainfo.InfoHash]*swarmState),
		interval: DefaultInterval,
		peerTTL:  4 * DefaultInterval,
		now:      time.Now,
		udpIDs:   make(map[uint64]time.Time),
	}
}

// Handler returns the tracker's HTTP handler (announce on /announce,
// scrape on /scrape).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/announce", s.handleAnnounce)
	mux.HandleFunc("/scrape", s.handleScrape)
	return mux
}

// failure writes a bencoded failure response (trackers report errors
// in-band with HTTP 200).
func failure(w http.ResponseWriter, msg string) {
	body, _ := bencode.Encode(map[string]any{"failure reason": msg})
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write(body)
}

func parseInfoHash(q url.Values) (metainfo.InfoHash, error) {
	var h metainfo.InfoHash
	raw := q.Get("info_hash")
	if len(raw) != metainfo.HashSize {
		return h, fmt.Errorf("info_hash must be %d bytes, got %d", metainfo.HashSize, len(raw))
	}
	copy(h[:], raw)
	return h, nil
}

func (s *Server) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	s.mAnnounces.Inc()
	q := r.URL.Query()
	ih, err := parseInfoHash(q)
	if err != nil {
		s.mAnnounceFailures.Inc()
		failure(w, err.Error())
		return
	}
	peerIDRaw := q.Get("peer_id")
	if len(peerIDRaw) != 20 {
		s.mAnnounceFailures.Inc()
		failure(w, "peer_id must be 20 bytes")
		return
	}
	port, err := strconv.Atoi(q.Get("port"))
	if err != nil || port <= 0 || port > 65535 {
		s.mAnnounceFailures.Inc()
		failure(w, "invalid port")
		return
	}
	left, _ := strconv.ParseInt(q.Get("left"), 10, 64)
	event := q.Get("event")
	numWant := 50
	if nw := q.Get("numwant"); nw != "" {
		if v, err := strconv.Atoi(nw); err == nil && v >= 0 {
			numWant = v
		}
	}

	host := q.Get("ip")
	if host == "" {
		host, _, _ = net.SplitHostPort(r.RemoteAddr)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		s.mAnnounceFailures.Inc()
		failure(w, "cannot determine peer IP")
		return
	}

	var key [20]byte
	copy(key[:], peerIDRaw)

	res := s.applyAnnounce(announceArgs{
		ih:      ih,
		peerID:  key,
		ip:      ip,
		port:    uint16(port),
		left:    left,
		event:   event,
		numWant: numWant,
	})

	resp := map[string]any{
		"interval":   int64(res.interval / time.Second),
		"complete":   int64(res.seeds),
		"incomplete": int64(res.leechers),
		"peers":      string(res.compact),
	}
	body, _ := bencode.Encode(resp)
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write(body)
}

// announceArgs is one announce, protocol-independent — both the HTTP
// handler and the BEP 15 UDP handler reduce their requests to this.
type announceArgs struct {
	ih      metainfo.InfoHash
	peerID  [20]byte
	ip      net.IP
	port    uint16
	left    int64
	event   string // "", "started", "completed", "stopped"
	numWant int
}

// announceResult is the protocol-independent announce answer.
type announceResult struct {
	interval        time.Duration
	seeds, leechers int
	compact         []byte // 6-byte IPv4+port entries, announcer excluded
}

// applyAnnounce registers (or removes) the peer and computes the reply.
// Sharing this core between the HTTP and UDP front ends is what makes
// the two protocols answer identically for identical swarm state.
func (s *Server) applyAnnounce(a announceArgs) announceResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.swarms[a.ih]
	if sw == nil {
		sw = &swarmState{peers: make(map[string]*peerEntry)}
		s.swarms[a.ih] = sw
	}
	s.expireLocked(sw)
	switch a.event {
	case "stopped":
		delete(sw.peers, string(a.peerID[:]))
	default:
		if a.event == "completed" {
			sw.downloads++
			s.mDownloads.Inc()
		}
		sw.peers[string(a.peerID[:])] = &peerEntry{
			id:       a.peerID,
			ip:       a.ip,
			port:     a.port,
			seed:     a.left == 0,
			lastSeen: s.now(),
		}
	}
	res := announceResult{interval: s.interval}
	for _, p := range sw.peers {
		if p.seed {
			res.seeds++
		} else {
			res.leechers++
		}
	}
	// Hand out up to numWant peers other than the announcer itself.
	for idStr, p := range sw.peers {
		if len(res.compact)/6 >= a.numWant { // entries, not bytes: numWant*6 can overflow
			break
		}
		if idStr == string(a.peerID[:]) {
			continue
		}
		ip4 := p.ip.To4()
		if ip4 == nil {
			continue // compact format is IPv4-only
		}
		entry := make([]byte, 6)
		copy(entry, ip4)
		binary.BigEndian.PutUint16(entry[4:], p.port)
		res.compact = append(res.compact, entry...)
	}
	return res
}

// scrapeCounts answers one scrape entry: seeds, leechers, downloads.
func (s *Server) scrapeCounts(ih metainfo.InfoHash) (seeds, leechers int, downloads int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.swarms[ih]
	if sw == nil {
		return 0, 0, 0
	}
	s.expireLocked(sw)
	for _, p := range sw.peers {
		if p.seed {
			seeds++
		} else {
			leechers++
		}
	}
	return seeds, leechers, sw.downloads
}

func (s *Server) handleScrape(w http.ResponseWriter, r *http.Request) {
	s.mScrapes.Inc()
	q := r.URL.Query()
	ih, err := parseInfoHash(q)
	if err != nil {
		failure(w, err.Error())
		return
	}
	seeds, leechers, downloads := s.scrapeCounts(ih)
	resp := map[string]any{
		"files": map[string]any{
			string(ih[:]): map[string]any{
				"complete":   int64(seeds),
				"downloaded": downloads,
				"incomplete": int64(leechers),
			},
		},
	}
	body, _ := bencode.Encode(resp)
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write(body)
}

// expireLocked drops peers that have not announced within the TTL.
func (s *Server) expireLocked(sw *swarmState) {
	cutoff := s.now().Add(-s.peerTTL)
	for k, p := range sw.peers {
		if p.lastSeen.Before(cutoff) {
			delete(sw.peers, k)
		}
	}
}

// Counts returns the current seed/leecher counts for a swarm (testing
// and monitoring convenience).
func (s *Server) Counts(ih metainfo.InfoHash) (seeds, leechers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.swarms[ih]
	if sw == nil {
		return 0, 0
	}
	for _, p := range sw.peers {
		if p.seed {
			seeds++
		} else {
			leechers++
		}
	}
	return seeds, leechers
}

// ---------------------------------------------------------------------------
// Client side.

// Error is a classified announce failure. Temporary errors — the
// tracker was unreachable, timed out, answered 5xx, or returned bytes
// that did not parse — are worth retrying with backoff; fatal ones mean
// the tracker answered and rejected the announce (a torrent it does not
// serve, a malformed request) and will not fix themselves. The
// distinction lets clients log "tracker briefly down" differently from
// "torrent unregistered" and back off accordingly.
type Error struct {
	URL       string
	Reason    string // in-band "failure reason", if the tracker sent one
	Temporary bool
	Err       error // underlying transport/parse error, if any
}

// Error implements error.
func (e *Error) Error() string {
	kind := "fatal"
	if e.Temporary {
		kind = "temporary"
	}
	switch {
	case e.Reason != "":
		return fmt.Sprintf("tracker: announce rejected (%s): %s", kind, e.Reason)
	case e.Err != nil:
		return fmt.Sprintf("tracker: announce failed (%s): %v", kind, e.Err)
	}
	return "tracker: announce failed (" + kind + ")"
}

// Unwrap exposes the underlying transport error.
func (e *Error) Unwrap() error { return e.Err }

// IsTemporary reports whether err is a retryable announce failure.
// Errors that are not a tracker.Error default to temporary — on
// PlanetLab-grade networks an unclassified failure is far more likely a
// flaky path than a permanent rejection.
func IsTemporary(err error) bool {
	var te *Error
	if errors.As(err, &te) {
		return te.Temporary
	}
	return err != nil
}

// PeerAddr is one peer endpoint from an announce response.
type PeerAddr struct {
	IP   net.IP
	Port uint16
}

// String renders host:port.
func (p PeerAddr) String() string {
	return net.JoinHostPort(p.IP.String(), strconv.Itoa(int(p.Port)))
}

// AnnounceRequest describes a client announce.
type AnnounceRequest struct {
	TrackerURL string
	InfoHash   metainfo.InfoHash
	PeerID     [20]byte
	Port       int
	Left       int64
	// Uploaded and Downloaded are the session's cumulative transfer
	// counters, reported verbatim to the tracker.
	Uploaded   int64
	Downloaded int64
	Event      string // "", "started", "completed", "stopped"
	NumWant    int
	// IP optionally overrides the address the tracker registers (needed
	// when many peers share one loopback host).
	IP string
}

// AnnounceResponse is the parsed tracker reply.
type AnnounceResponse struct {
	Interval   time.Duration
	Seeders    int
	Leechers   int
	Peers      []PeerAddr
	FailureMsg string
}

// maxAnnounceBody caps an HTTP announce response; anything larger is a
// misbehaving (or malicious) tracker, not a peer list.
const maxAnnounceBody = 1 << 20

// AnnounceWith performs one announce, dispatching on the tracker URL's
// scheme: http/https go over client (nil = http.DefaultClient), udp://
// is uc's BEP 15 exchange (nil = DefaultUDP), so callers can wire both
// unconditionally. Failures come back as a classified *Error: transport
// problems, timeouts, 5xx statuses, and unparseable responses are
// Temporary; an in-band "failure reason" / UDP error packet (also
// surfaced in the response's FailureMsg for compatibility) or a non-5xx
// HTTP error status is fatal.
func AnnounceWith(client *http.Client, uc *UDPClient, req AnnounceRequest) (*AnnounceResponse, error) {
	u, err := url.Parse(req.TrackerURL)
	if err != nil {
		return nil, fmt.Errorf("tracker: bad URL: %w", err)
	}
	if u.Scheme == "udp" {
		if uc == nil {
			uc = DefaultUDP
		}
		return uc.Announce(req)
	}
	return announceHTTP(client, u, req)
}

func announceHTTP(client *http.Client, u *url.URL, req AnnounceRequest) (*AnnounceResponse, error) {
	if client == nil {
		client = http.DefaultClient
	}
	q := u.Query()
	q.Set("info_hash", string(req.InfoHash[:]))
	q.Set("peer_id", string(req.PeerID[:]))
	q.Set("port", strconv.Itoa(req.Port))
	q.Set("left", strconv.FormatInt(req.Left, 10))
	q.Set("uploaded", strconv.FormatInt(req.Uploaded, 10))
	q.Set("downloaded", strconv.FormatInt(req.Downloaded, 10))
	q.Set("compact", "1")
	if req.Event != "" {
		q.Set("event", req.Event)
	}
	if req.NumWant > 0 {
		q.Set("numwant", strconv.Itoa(req.NumWant))
	}
	if req.IP != "" {
		q.Set("ip", req.IP)
	}
	u.RawQuery = q.Encode()

	httpResp, err := client.Get(u.String())
	if err != nil {
		return nil, &Error{URL: req.TrackerURL, Temporary: true, Err: err}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, &Error{
			URL:       req.TrackerURL,
			Temporary: httpResp.StatusCode >= 500 || httpResp.StatusCode == http.StatusTooManyRequests,
			Err:       fmt.Errorf("http status %s", httpResp.Status),
		}
	}
	// Read through a LimitReader one byte past the cap: a body of
	// exactly maxAnnounceBody+1 readable bytes means the tracker sent
	// too much, detected deterministically even when the oversized
	// final chunk arrives together with io.EOF (the old hand-rolled
	// loop only checked the cap on nil-error reads, so such a chunk
	// was appended past the cap unchecked).
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, maxAnnounceBody+1))
	if err != nil {
		return nil, &Error{URL: req.TrackerURL, Temporary: true, Err: err}
	}
	if len(body) > maxAnnounceBody {
		return nil, &Error{URL: req.TrackerURL, Temporary: true,
			Err: errors.New("response too large")}
	}
	resp, err := ParseAnnounceResponse(body)
	if err != nil {
		return nil, &Error{URL: req.TrackerURL, Temporary: true, Err: err}
	}
	if resp.FailureMsg != "" {
		return resp, &Error{URL: req.TrackerURL, Reason: resp.FailureMsg}
	}
	return resp, nil
}

// ParseAnnounceResponse decodes a bencoded announce reply.
func ParseAnnounceResponse(body []byte) (*AnnounceResponse, error) {
	v, err := bencode.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("tracker: malformed response: %w", err)
	}
	d, ok := bencode.AsDict(v)
	if !ok {
		return nil, errors.New("tracker: response is not a dictionary")
	}
	resp := &AnnounceResponse{}
	if msg, ok := d.Str("failure reason"); ok {
		resp.FailureMsg = msg
		return resp, nil
	}
	if iv, ok := d.Int("interval"); ok {
		resp.Interval = time.Duration(iv) * time.Second
	}
	if c, ok := d.Int("complete"); ok {
		resp.Seeders = int(c)
	}
	if c, ok := d.Int("incomplete"); ok {
		resp.Leechers = int(c)
	}
	compact, ok := d.Str("peers")
	if !ok {
		return nil, errors.New("tracker: missing peers")
	}
	if len(compact)%6 != 0 {
		return nil, fmt.Errorf("tracker: compact peers length %d", len(compact))
	}
	for off := 0; off < len(compact); off += 6 {
		resp.Peers = append(resp.Peers, PeerAddr{
			IP:   net.IPv4(compact[off], compact[off+1], compact[off+2], compact[off+3]),
			Port: binary.BigEndian.Uint16([]byte(compact[off+4 : off+6])),
		})
	}
	return resp, nil
}

// Serve starts the tracker on addr (e.g. "127.0.0.1:0") and returns the
// bound listener plus a shutdown function.
func (s *Server) Serve(addr string) (net.Listener, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln, srv.Close, nil
}
