// BEP 15: the UDP tracker protocol. This file holds the packet codec
// (shared by server and client) and the server side — a datagram front
// end over the same swarm registry the HTTP handler uses.
//
// Wire format (all integers big-endian, per the BEP):
//
//	connect request    int64 protocol_id = 0x41727101980
//	                   int32 action = 0, int32 transaction_id
//	connect response   int32 action = 0, int32 transaction_id,
//	                   int64 connection_id
//	announce request   int64 connection_id, int32 action = 1,
//	                   int32 transaction_id, 20B info_hash, 20B peer_id,
//	                   int64 downloaded, int64 left, int64 uploaded,
//	                   int32 event (0 none, 1 completed, 2 started,
//	                   3 stopped), uint32 IP (0 = sender), uint32 key,
//	                   int32 num_want (-1 default), uint16 port
//	announce response  int32 action = 1, int32 transaction_id,
//	                   int32 interval, int32 leechers, int32 seeders,
//	                   6B (IPv4+port) per peer
//	scrape request     int64 connection_id, int32 action = 2,
//	                   int32 transaction_id, 20B info_hash each
//	scrape response    int32 action = 2, int32 transaction_id, then per
//	                   hash: int32 seeders, int32 completed,
//	                   int32 leechers
//	error response     int32 action = 3, int32 transaction_id,
//	                   UTF-8 message
//
// Connection ids are a MAC of the clock and the client's IP (connID),
// live at least udpConnIDTTL (2 minutes, per the BEP), and every
// announce/scrape must present a live one from the IP it was issued to
// — that is the protocol's anti-spoofing handshake.
package tracker

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
)

const (
	udpProtocolID = 0x41727101980

	udpActionConnect  = 0
	udpActionAnnounce = 1
	udpActionScrape   = 2
	udpActionError    = 3

	udpEventNone      = 0
	udpEventCompleted = 1
	udpEventStarted   = 2
	udpEventStopped   = 3

	// udpConnIDTTL is the least time the server honours a connection id
	// (BEP 15 mandates two minutes), and the width of connID's clock
	// bucket.
	udpConnIDTTL = 2 * time.Minute

	// udpConnIDReuse is how long a client keeps reusing a connection id
	// before reconnecting (BEP 15 allows one minute).
	udpConnIDReuse = time.Minute

	// udpMaxNumWant caps one UDP announce response's peer list so the
	// datagram stays comfortably under common MTU-with-fragmentation
	// limits (20 + 6·500 = 3020 bytes).
	udpMaxNumWant = 500

	// udpMaxScrape is the BEP 15 cap on info-hashes per scrape.
	udpMaxScrape = 74

	connectReqLen   = 16
	connectRespLen  = 16
	announceReqLen  = 98
	announceRespLen = 20
	scrapeRespUnit  = 12
)

// udpErrExpiredConnID is the error-packet message for a missing or
// expired connection id. The client recognises it (by the substring
// "connection id") and reconnects instead of failing the announce.
const udpErrExpiredConnID = "expired connection id"

// udpEventCode maps the HTTP event string to the BEP 15 event int.
func udpEventCode(event string) (uint32, error) {
	switch event {
	case "":
		return udpEventNone, nil
	case "completed":
		return udpEventCompleted, nil
	case "started":
		return udpEventStarted, nil
	case "stopped":
		return udpEventStopped, nil
	}
	return 0, fmt.Errorf("tracker: unknown announce event %q", event)
}

// udpEventString is the inverse of udpEventCode; unknown codes become
// plain announces rather than errors (forward compatibility).
func udpEventString(code uint32) string {
	switch code {
	case udpEventCompleted:
		return "completed"
	case udpEventStarted:
		return "started"
	case udpEventStopped:
		return "stopped"
	}
	return ""
}

// ---------------------------------------------------------------------------
// Codec.

// udpAnnounceReq is a parsed BEP 15 announce request.
type udpAnnounceReq struct {
	ConnID     uint64
	Tx         uint32
	InfoHash   metainfo.InfoHash
	PeerID     [20]byte
	Downloaded int64
	Left       int64
	Uploaded   int64
	Event      uint32
	IP         uint32 // IPv4, 0 = use the datagram's source address
	Key        uint32
	NumWant    int32 // -1 = tracker default
	Port       uint16
}

func marshalConnectReq(tx uint32) []byte {
	p := make([]byte, connectReqLen)
	binary.BigEndian.PutUint64(p[0:8], udpProtocolID)
	binary.BigEndian.PutUint32(p[8:12], udpActionConnect)
	binary.BigEndian.PutUint32(p[12:16], tx)
	return p
}

func parseConnectReq(p []byte) (tx uint32, ok bool) {
	if len(p) < connectReqLen ||
		binary.BigEndian.Uint64(p[0:8]) != udpProtocolID ||
		binary.BigEndian.Uint32(p[8:12]) != udpActionConnect {
		return 0, false
	}
	return binary.BigEndian.Uint32(p[12:16]), true
}

func marshalConnectResp(tx uint32, connID uint64) []byte {
	p := make([]byte, connectRespLen)
	binary.BigEndian.PutUint32(p[0:4], udpActionConnect)
	binary.BigEndian.PutUint32(p[4:8], tx)
	binary.BigEndian.PutUint64(p[8:16], connID)
	return p
}

func parseConnectResp(p []byte) (connID uint64, err error) {
	if len(p) < connectRespLen {
		return 0, fmt.Errorf("tracker: connect response is %d bytes, want %d", len(p), connectRespLen)
	}
	return binary.BigEndian.Uint64(p[8:16]), nil
}

func marshalAnnounceReq(r udpAnnounceReq) []byte {
	p := make([]byte, announceReqLen)
	binary.BigEndian.PutUint64(p[0:8], r.ConnID)
	binary.BigEndian.PutUint32(p[8:12], udpActionAnnounce)
	binary.BigEndian.PutUint32(p[12:16], r.Tx)
	copy(p[16:36], r.InfoHash[:])
	copy(p[36:56], r.PeerID[:])
	binary.BigEndian.PutUint64(p[56:64], uint64(r.Downloaded))
	binary.BigEndian.PutUint64(p[64:72], uint64(r.Left))
	binary.BigEndian.PutUint64(p[72:80], uint64(r.Uploaded))
	binary.BigEndian.PutUint32(p[80:84], r.Event)
	binary.BigEndian.PutUint32(p[84:88], r.IP)
	binary.BigEndian.PutUint32(p[88:92], r.Key)
	binary.BigEndian.PutUint32(p[92:96], uint32(r.NumWant))
	binary.BigEndian.PutUint16(p[96:98], r.Port)
	return p
}

func parseAnnounceReq(p []byte) (udpAnnounceReq, bool) {
	var r udpAnnounceReq
	if len(p) < announceReqLen || binary.BigEndian.Uint32(p[8:12]) != udpActionAnnounce {
		return r, false
	}
	r.ConnID = binary.BigEndian.Uint64(p[0:8])
	r.Tx = binary.BigEndian.Uint32(p[12:16])
	copy(r.InfoHash[:], p[16:36])
	copy(r.PeerID[:], p[36:56])
	r.Downloaded = int64(binary.BigEndian.Uint64(p[56:64]))
	r.Left = int64(binary.BigEndian.Uint64(p[64:72]))
	r.Uploaded = int64(binary.BigEndian.Uint64(p[72:80]))
	r.Event = binary.BigEndian.Uint32(p[80:84])
	r.IP = binary.BigEndian.Uint32(p[84:88])
	r.Key = binary.BigEndian.Uint32(p[88:92])
	r.NumWant = int32(binary.BigEndian.Uint32(p[92:96]))
	r.Port = binary.BigEndian.Uint16(p[96:98])
	return r, true
}

func marshalAnnounceResp(tx uint32, interval time.Duration, leechers, seeders int, compact []byte) []byte {
	p := make([]byte, announceRespLen, announceRespLen+len(compact))
	binary.BigEndian.PutUint32(p[0:4], udpActionAnnounce)
	binary.BigEndian.PutUint32(p[4:8], tx)
	binary.BigEndian.PutUint32(p[8:12], uint32(interval/time.Second))
	binary.BigEndian.PutUint32(p[12:16], uint32(leechers))
	binary.BigEndian.PutUint32(p[16:20], uint32(seeders))
	return append(p, compact...)
}

func parseAnnounceResp(p []byte) (*AnnounceResponse, error) {
	if len(p) < announceRespLen {
		return nil, fmt.Errorf("tracker: announce response is %d bytes, want ≥%d", len(p), announceRespLen)
	}
	peers, err := parseCompact(p[announceRespLen:])
	if err != nil {
		return nil, err
	}
	return &AnnounceResponse{
		Interval: time.Duration(binary.BigEndian.Uint32(p[8:12])) * time.Second,
		Leechers: int(binary.BigEndian.Uint32(p[12:16])),
		Seeders:  int(binary.BigEndian.Uint32(p[16:20])),
		Peers:    peers,
	}, nil
}

func marshalScrapeReq(connID uint64, tx uint32, hashes []metainfo.InfoHash) []byte {
	p := make([]byte, 16, 16+20*len(hashes))
	binary.BigEndian.PutUint64(p[0:8], connID)
	binary.BigEndian.PutUint32(p[8:12], udpActionScrape)
	binary.BigEndian.PutUint32(p[12:16], tx)
	for _, h := range hashes {
		p = append(p, h[:]...)
	}
	return p
}

func parseScrapeReq(p []byte) (connID uint64, tx uint32, hashes []metainfo.InfoHash, ok bool) {
	if len(p) < 16+20 || binary.BigEndian.Uint32(p[8:12]) != udpActionScrape {
		return 0, 0, nil, false
	}
	connID = binary.BigEndian.Uint64(p[0:8])
	tx = binary.BigEndian.Uint32(p[12:16])
	body := p[16:]
	n := len(body) / 20
	if n > udpMaxScrape {
		n = udpMaxScrape
	}
	for i := 0; i < n; i++ {
		var h metainfo.InfoHash
		copy(h[:], body[i*20:(i+1)*20])
		hashes = append(hashes, h)
	}
	return connID, tx, hashes, true
}

// ScrapeCount is one swarm's scrape entry.
type ScrapeCount struct {
	Seeders   int
	Completed int
	Leechers  int
}

func marshalScrapeResp(tx uint32, counts []ScrapeCount) []byte {
	p := make([]byte, 8, 8+scrapeRespUnit*len(counts))
	binary.BigEndian.PutUint32(p[0:4], udpActionScrape)
	binary.BigEndian.PutUint32(p[4:8], tx)
	for _, c := range counts {
		var e [scrapeRespUnit]byte
		binary.BigEndian.PutUint32(e[0:4], uint32(c.Seeders))
		binary.BigEndian.PutUint32(e[4:8], uint32(c.Completed))
		binary.BigEndian.PutUint32(e[8:12], uint32(c.Leechers))
		p = append(p, e[:]...)
	}
	return p
}

func parseScrapeResp(p []byte) ([]ScrapeCount, error) {
	if len(p) < 8 || (len(p)-8)%scrapeRespUnit != 0 {
		return nil, fmt.Errorf("tracker: scrape response length %d", len(p))
	}
	body := p[8:]
	counts := make([]ScrapeCount, 0, len(body)/scrapeRespUnit)
	for off := 0; off < len(body); off += scrapeRespUnit {
		counts = append(counts, ScrapeCount{
			Seeders:   int(binary.BigEndian.Uint32(body[off : off+4])),
			Completed: int(binary.BigEndian.Uint32(body[off+4 : off+8])),
			Leechers:  int(binary.BigEndian.Uint32(body[off+8 : off+12])),
		})
	}
	return counts, nil
}

func marshalErrorResp(tx uint32, msg string) []byte {
	p := make([]byte, 8, 8+len(msg))
	binary.BigEndian.PutUint32(p[0:4], udpActionError)
	binary.BigEndian.PutUint32(p[4:8], tx)
	return append(p, msg...)
}

// udpRespHeader splits a response datagram's common header. Every
// response carries at least action + transaction id.
func udpRespHeader(p []byte) (action, tx uint32, ok bool) {
	if len(p) < 8 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint32(p[4:8]), true
}

// ---------------------------------------------------------------------------
// Server.

// connID is the connection id the server issues to ip in clock
// bucket b: HMAC-SHA256(connKey, b ‖ ip) truncated to 8 bytes. Binding
// the id to the IP a connect came from means a spoofed announce cannot
// aim its answer, up to 20 + 6·udpMaxNumWant bytes, at another host.
// It binds the IP and not the port: UDPClient dials a fresh socket for
// each exchange and reuses a cached id.
func (s *Server) connID(b int64, ip net.IP) uint64 {
	var buf [8 + net.IPv6len]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(b))
	copy(buf[8:], ip.To16())
	m := hmac.New(sha256.New, s.connKey[:])
	m.Write(buf[:])
	return binary.BigEndian.Uint64(m.Sum(nil))
}

// connIDBucket is the clock bucket of t for connID.
func connIDBucket(t time.Time) int64 { return t.UnixNano() / int64(udpConnIDTTL) }

// validConnID reports whether id was issued to ip in the current clock
// bucket or the one before: an id lives at least udpConnIDTTL and less
// than twice that.
func (s *Server) validConnID(id uint64, ip net.IP) bool {
	b := connIDBucket(s.now())
	return id == s.connID(b, ip) || id == s.connID(b-1, ip)
}

// ServeUDP answers BEP 15 datagrams on pc until it is closed. Run it
// in a goroutine (ListenUDP does); multiple loops may share one pc.
func (s *Server) ServeUDP(pc net.PacketConn) error {
	buf := make([]byte, 4096)
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			return err
		}
		if resp := s.handleUDPPacket(buf[:n], addr); resp != nil {
			_, _ = pc.WriteTo(resp, addr)
		}
	}
}

// ListenUDP binds addr (e.g. "127.0.0.1:0"), serves BEP 15 on it in a
// background goroutine, and returns the packet conn (for its bound
// address) plus a shutdown function.
func (s *Server) ListenUDP(addr string) (net.PacketConn, func() error, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = s.ServeUDP(pc) }()
	return pc, pc.Close, nil
}

// handleUDPPacket processes one request datagram and returns the
// response datagram (nil = drop silently, as BEP 15 prescribes for
// garbage that does not parse far enough to carry a transaction id).
func (s *Server) handleUDPPacket(p []byte, from net.Addr) []byte {
	s.mUDPPackets.Inc()
	if len(p) < 16 {
		return nil // too short to carry action + transaction id
	}
	fromIP := addrIP(from)
	action := binary.BigEndian.Uint32(p[8:12])
	switch action {
	case udpActionConnect:
		tx, ok := parseConnectReq(p)
		if !ok {
			return nil // wrong magic: not a BitTorrent UDP client
		}
		s.mUDPConnects.Inc()
		return marshalConnectResp(tx, s.connID(connIDBucket(s.now()), fromIP))

	case udpActionAnnounce:
		req, ok := parseAnnounceReq(p)
		if !ok {
			s.mUDPErrors.Inc()
			return marshalErrorResp(binary.BigEndian.Uint32(p[12:16]), "malformed announce")
		}
		if !s.validConnID(req.ConnID, fromIP) {
			s.mUDPErrors.Inc()
			return marshalErrorResp(req.Tx, udpErrExpiredConnID)
		}
		s.mAnnounces.Inc()
		ip := fromIP
		if req.IP != 0 { // the ?ip= override of HTTP
			ip = binary.BigEndian.AppendUint32(nil, req.IP)
		}
		res, err := s.applyAnnounce(announceArgs{
			ih:      req.InfoHash,
			peerID:  req.PeerID,
			ip:      ip,
			port:    req.Port,
			left:    req.Left,
			event:   udpEventString(req.Event),
			numWant: min(int(req.NumWant), udpMaxNumWant),
		})
		if err != nil {
			s.mAnnounceFailures.Inc()
			s.mUDPErrors.Inc()
			return marshalErrorResp(req.Tx, err.Error())
		}
		return marshalAnnounceResp(req.Tx, res.interval, res.leechers, res.seeds, res.compact)

	case udpActionScrape:
		connID, tx, hashes, ok := parseScrapeReq(p)
		if !ok {
			s.mUDPErrors.Inc()
			return marshalErrorResp(binary.BigEndian.Uint32(p[12:16]), "malformed scrape")
		}
		if !s.validConnID(connID, fromIP) {
			s.mUDPErrors.Inc()
			return marshalErrorResp(tx, udpErrExpiredConnID)
		}
		s.mScrapes.Inc()
		counts := make([]ScrapeCount, len(hashes))
		for i, h := range hashes {
			seeds, leechers, downloads := s.scrapeCounts(h)
			counts[i] = ScrapeCount{Seeders: seeds, Completed: int(downloads), Leechers: leechers}
		}
		return marshalScrapeResp(tx, counts)
	}
	return nil // unknown action: drop
}

// addrIP is the IP of a datagram's source address.
func addrIP(from net.Addr) net.IP {
	if a, ok := from.(*net.UDPAddr); ok {
		return a.IP
	}
	host, _, _ := net.SplitHostPort(from.String())
	return net.ParseIP(host)
}

var errUDPTimeout = errors.New("tracker: udp exchange timed out (retransmits exhausted)")
