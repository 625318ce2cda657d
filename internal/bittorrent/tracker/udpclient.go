// BEP 15 client side: UDPClient.Announce and Scrape with the spec's
// 15·2^n-second retransmit schedule, connection-id caching (reused for
// one minute, reconnect on the server's expiry verdict), and the same
// classified *Error scheme as the HTTP announcer — so the peers' and
// monitors' existing retry/backoff logic applies unchanged.
package tracker

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strings"
	"sync"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
)

// DefaultUDP is the UDPClient Announce uses for udp:// tracker URLs.
var DefaultUDP = &UDPClient{}

// UDPClient performs BEP 15 exchanges. The zero value is ready to use;
// one client may be shared by any number of goroutines (the
// connection-id cache is the shared state worth having: a fleet of
// monitors announcing to one tracker connects once a minute, not once
// a probe).
type UDPClient struct {
	// Dial opens the datagram socket to the tracker (default
	// net.Dial("udp", addr)). A faultnet Datagram wrapper goes here to
	// announce through injected datagram loss/duplication/reordering.
	Dial func(addr string) (net.Conn, error)
	// Timeout is the base retransmit timeout; attempt n waits
	// Timeout·2^n (default 15s, per BEP 15). Tests shrink it.
	Timeout time.Duration
	// MaxRetransmits bounds the schedule: a request is sent
	// 1+MaxRetransmits times before the exchange fails as Temporary
	// (default 3 → worst case 15+30+60+120s with the default Timeout;
	// the BEP allows up to n=8).
	MaxRetransmits int
	// Now overrides the clock (tests).
	Now func() time.Time

	mu    sync.Mutex
	conns map[string]udpConnID // tracker host:port → cached connection id
}

// udpConnID is one cached connection id and when it was minted.
type udpConnID struct {
	id     uint64
	minted time.Time
}

func (c *UDPClient) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 15 * time.Second
}

func (c *UDPClient) retransmits() int {
	if c.MaxRetransmits > 0 {
		return c.MaxRetransmits
	}
	return 3
}

func (c *UDPClient) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *UDPClient) dial(addr string) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(addr)
	}
	return net.Dial("udp", addr)
}

// newTx draws a random transaction id.
func newTx() (uint32, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

// udpTrackerAddr extracts host:port from a udp:// tracker URL.
func udpTrackerAddr(trackerURL string) (string, error) {
	u, err := url.Parse(trackerURL)
	if err != nil {
		return "", fmt.Errorf("tracker: bad URL: %w", err)
	}
	if u.Scheme != "udp" {
		return "", fmt.Errorf("tracker: %q is not a udp:// URL", trackerURL)
	}
	if u.Host == "" {
		return "", fmt.Errorf("tracker: udp URL %q has no host", trackerURL)
	}
	return u.Host, nil
}

// udpServerError is an in-band error packet, pre-classification.
type udpServerError struct{ msg string }

func (e *udpServerError) Error() string { return "tracker: udp error packet: " + e.msg }

// isConnIDError reports whether the server's error verdict names the
// connection id — the one in-band error a reconnect can fix.
func (e *udpServerError) isConnIDError() bool {
	return strings.Contains(strings.ToLower(e.msg), "connection id")
}

// Announce performs one BEP 15 announce against req.TrackerURL
// (a udp:// URL). Failures are classified as exchange describes.
func (c *UDPClient) Announce(req AnnounceRequest) (*AnnounceResponse, error) {
	event, err := udpEventCode(req.Event)
	if err != nil {
		return nil, &Error{URL: req.TrackerURL, Err: err}
	}
	numWant := int32(-1)
	if req.NumWant > 0 {
		numWant = int32(req.NumWant)
	}
	key, err := newTx()
	if err != nil {
		return nil, &Error{URL: req.TrackerURL, Temporary: true, Err: err}
	}
	payload, err := c.exchange(req.TrackerURL, udpActionAnnounce, marshalAnnounceReq(udpAnnounceReq{
		InfoHash:   req.InfoHash,
		PeerID:     req.PeerID,
		Downloaded: req.Downloaded,
		Left:       req.Left,
		Uploaded:   req.Uploaded,
		Event:      event,
		Key:        key,
		NumWant:    numWant,
		Port:       uint16(req.Port),
	}))
	if err != nil {
		return nil, err
	}
	resp, err := parseAnnounceResp(payload)
	if err != nil {
		return nil, &Error{URL: req.TrackerURL, Temporary: true, Err: err}
	}
	return resp, nil
}

// Scrape performs one BEP 15 scrape for up to 74 info-hashes.
func (c *UDPClient) Scrape(trackerURL string, hashes []metainfo.InfoHash) ([]ScrapeCount, error) {
	if len(hashes) == 0 || len(hashes) > udpMaxScrape {
		return nil, fmt.Errorf("tracker: scrape wants 1..%d hashes, got %d", udpMaxScrape, len(hashes))
	}
	payload, err := c.exchange(trackerURL, udpActionScrape, marshalScrapeReq(0, 0, hashes))
	if err != nil {
		return nil, err
	}
	counts, err := parseScrapeResp(payload)
	if err != nil {
		return nil, &Error{URL: trackerURL, Temporary: true, Err: err}
	}
	if len(counts) != len(hashes) {
		return nil, &Error{URL: trackerURL, Temporary: true,
			Err: fmt.Errorf("tracker: scrape answered %d entries for %d hashes", len(counts), len(hashes))}
	}
	return counts, nil
}

// exchange sends the request pkt (an announce or scrape, whose
// connection id and transaction id exchange fills in) to the udp://
// tracker at trackerURL and returns the payload of the matching
// answer. On the server's expired-connection-id verdict it reconnects
// once and resends. An in-band error packet is a fatal *Error with
// Reason set; timeouts and transport failures are Temporary.
func (c *UDPClient) exchange(trackerURL string, action uint32, pkt []byte) ([]byte, error) {
	addr, err := udpTrackerAddr(trackerURL)
	if err != nil {
		return nil, err
	}
	conn, err := c.dial(addr)
	if err != nil {
		return nil, &Error{URL: trackerURL, Temporary: true, Err: err}
	}
	defer conn.Close()
	payload, err := c.send(conn, addr, action, pkt)
	var serr *udpServerError
	if errors.As(err, &serr) && serr.isConnIDError() {
		c.mu.Lock()
		delete(c.conns, addr)
		c.mu.Unlock()
		payload, err = c.send(conn, addr, action, pkt)
	}
	switch {
	case err == nil:
		return payload, nil
	case errors.As(err, &serr):
		return nil, &Error{URL: trackerURL, Reason: serr.msg}
	}
	return nil, &Error{URL: trackerURL, Temporary: true, Err: err}
}

// send stamps pkt with a live connection id and runs one round trip.
func (c *UDPClient) send(conn net.Conn, addr string, action uint32, pkt []byte) ([]byte, error) {
	connID, err := c.connID(conn, addr)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(pkt[0:8], connID)
	return c.roundTrip(conn, addr, pkt, action)
}

// connID returns a live connection id for addr: the cached one when
// younger than udpConnIDReuse, else a fresh connect exchange.
func (c *UDPClient) connID(conn net.Conn, addr string) (uint64, error) {
	now := c.now()
	c.mu.Lock()
	cached, ok := c.conns[addr]
	c.mu.Unlock()
	if ok && now.Sub(cached.minted) < udpConnIDReuse {
		return cached.id, nil
	}
	payload, err := c.roundTrip(conn, addr, marshalConnectReq(0), udpActionConnect)
	if err != nil {
		return 0, err
	}
	id, err := parseConnectResp(payload)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.conns == nil {
		c.conns = make(map[string]udpConnID)
	}
	c.conns[addr] = udpConnID{id: id, minted: now}
	c.mu.Unlock()
	return id, nil
}

// roundTrip stamps pkt (any request: each carries its transaction id
// at bytes 12–16) with a fresh transaction id, sends it and waits for
// the matching response, following the BEP 15 retransmit schedule:
// attempt n times out after Timeout·2^n, and the request is resent up
// to MaxRetransmits times. Datagrams with the wrong transaction id or
// an unexpected action are strays (late retransmit answers,
// cross-talk) and are skipped. An error packet for our transaction
// comes back as *udpServerError.
func (c *UDPClient) roundTrip(conn net.Conn, addr string, pkt []byte, wantAction uint32) ([]byte, error) {
	tx, err := newTx()
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(pkt[12:16], tx)
	buf := make([]byte, 4096)
	timeout := c.timeout()
	for n := 0; n <= c.retransmits(); n++ {
		if _, err := conn.Write(pkt); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(timeout << uint(n))
		if err := conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		for {
			rn, err := conn.Read(buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break // retransmit with the doubled timeout
				}
				return nil, err
			}
			p := buf[:rn]
			action, gotTx, ok := udpRespHeader(p)
			if !ok || gotTx != tx {
				continue // stray datagram
			}
			if action == udpActionError {
				return nil, &udpServerError{msg: string(p[8:])}
			}
			if action != wantAction {
				continue // protocol confusion; keep waiting
			}
			out := make([]byte, rn)
			copy(out, p)
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w after %d attempts to %s", errUDPTimeout, c.retransmits()+1, addr)
}
