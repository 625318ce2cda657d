// Package peer implements a runnable BitTorrent node: a seeder or
// leecher that announces to an HTTP tracker, accepts and dials peer
// connections, exchanges bitfields and pieces over TCP, verifies piece
// hashes, and serves uploads after completing.
//
// Together with internal/bittorrent/tracker it forms a complete private
// swarm deployable on localhost — the repository's stand-in for the
// paper's PlanetLab testbed (§4.1). The protocol implementation is the
// mainline wire protocol with whole-piece requests, BEP-10/11 peer
// exchange, and a generous choking policy: interest is answered with an
// immediate unchoke. That is the policy of the §4 simulator
// (internal/swarm), whose upload slots are MaxUploads with no
// reciprocation ranking, and of every controlled experiment here. Its
// piece picker is the simulator's too, swarm.PickPiece over its peers.
package peer

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/bittorrent/wire"
	"swarmavail/internal/obs"
	"swarmavail/internal/swarm"
)

// Connection limits: a node dials no new peer while it holds maxPeers
// connections (also its announce's numwant), and keeps at most pipeline
// whole-piece requests outstanding per connection.
const (
	maxPeers = 30
	pipeline = 2
)

// DefaultDialTimeout bounds outgoing peer dials when Config.DialTimeout
// (or ProbeConfig.DialTimeout) is zero.
const DefaultDialTimeout = 3 * time.Second

// DialFunc dials one peer; it matches net.DialTimeout and
// faultnet.Network.Dial, so a fault-injection layer slots straight in.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Config describes a node.
type Config struct {
	// Torrent is the metainfo the node participates in.
	Torrent *metainfo.Torrent
	// Content holds the full content for a seeder; leave nil to start as
	// a leecher.
	Content []byte
	// ListenAddr is the TCP listen address ("127.0.0.1:0" by default).
	ListenAddr string
	// AnnounceInterval overrides the tracker-provided interval (tests).
	AnnounceInterval time.Duration
	// DisableTrackerPeers stops the node from dialing tracker-reported
	// peers; it still announces (so others can find it) but discovers
	// neighbours only via Bootstrap and PEX. Used to demonstrate and
	// test PEX-driven discovery (§2.2's methodology).
	DisableTrackerPeers bool
	// Bootstrap is a list of peer addresses dialed at Start.
	Bootstrap []string
	// DialTimeout bounds each outgoing peer dial (DefaultDialTimeout
	// if 0). Flaky-network deployments want this well below the announce
	// interval so one dead peer cannot stall a discovery round.
	DialTimeout time.Duration
	// Dial overrides the peer dialer (nil = net.DialTimeout). A
	// faultnet.Network's Dial goes here to run the node under injected
	// faults.
	Dial DialFunc
	// Listen overrides the listener constructor (nil = net.Listen); a
	// fault layer can wrap accepted connections here.
	Listen func(network, addr string) (net.Listener, error)
	// HTTPClient performs tracker announces (nil = http.DefaultClient);
	// inject a faulty http.RoundTripper to exercise announce retry.
	HTTPClient *http.Client
	// UDP performs announces when the torrent's tracker URL is udp://
	// (nil = tracker.DefaultUDP). A client with a faultnet Dial hook
	// goes here to announce through injected datagram faults.
	UDP *tracker.UDPClient
	// Logf, when set, receives classified lifecycle events: announce
	// failures (temporary vs. fatal) and dial backoff decisions. Leave
	// nil for silence.
	Logf func(format string, args ...any)
	// Metrics is an optional observability registry; when set the node
	// emits peer_* series (announce results, dial failures, live
	// connections, piece throughput). Nodes sharing a registry share
	// the series, which then read as fleet totals.
	Metrics *obs.Registry
}

// Node is a running peer.
type Node struct {
	cfg      Config
	info     *metainfo.Info
	infoHash metainfo.InfoHash
	peerID   [20]byte

	listener net.Listener

	mu        sync.Mutex
	content   []byte
	have      wire.Bitfield
	haveCount int
	copies    []int         // per piece: connected remotes that hold it
	pending   map[int]*conn // piece → the connection it is requested from: the only record of a request
	conns     map[*conn]struct{}
	dialed    map[string]bool
	known     map[string]bool // peer listen addresses learned (tracker, PEX, handshakes)
	stopped   bool

	// Dial-failure backoff (guarded by mu): consecutive failures per
	// address and the earliest next attempt, capped exponential with
	// jitter so a dead peer is not hammered every announce round.
	dialFails map[string]int
	nextDial  map[string]time.Time
	rng       *mrand.Rand // backoff jitter and the piece picker's tie-break

	doneOnce sync.Once
	doneCh   chan struct{}
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// Cumulative transfer totals reported to the tracker (BEP 3
	// "uploaded"/"downloaded", payload bytes).
	uploaded   atomic.Int64
	downloaded atomic.Int64

	m nodeMetrics
}

// conn is one peer connection.
type conn struct {
	c        net.Conn
	writeMu  sync.Mutex
	mu       sync.Mutex // guards remote and choked
	remote   *remote
	choked   bool // we are choked by the remote, or it dropped
	requests int  // pieces n.pending claims for this connection (guarded by n.mu)
}

// New creates a node. If cfg.Content is non-nil it must match the
// torrent's total length and piece hashes.
func New(cfg Config) (*Node, error) {
	if cfg.Torrent == nil {
		return nil, errors.New("peer: torrent required")
	}
	info := &cfg.Torrent.Info
	if err := info.Validate(); err != nil {
		return nil, err
	}
	ih, err := info.Hash()
	if err != nil {
		return nil, err
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	n := &Node{
		cfg:       cfg,
		info:      info,
		infoHash:  ih,
		have:      wire.NewBitfield(info.NumPieces()),
		copies:    make([]int, info.NumPieces()),
		pending:   make(map[int]*conn),
		conns:     make(map[*conn]struct{}),
		dialed:    make(map[string]bool),
		known:     make(map[string]bool),
		dialFails: make(map[string]int),
		nextDial:  make(map[string]time.Time),
		doneCh:    make(chan struct{}),
		stopCh:    make(chan struct{}),
		m:         newNodeMetrics(cfg.Metrics),
	}
	copy(n.peerID[:], "-SA0001-")
	if _, err := rand.Read(n.peerID[8:]); err != nil {
		return nil, err
	}
	var rngSeed int64
	for _, b := range n.peerID[8:16] {
		rngSeed = rngSeed<<8 | int64(b)
	}
	n.rng = mrand.New(mrand.NewSource(rngSeed ^ 0x5eed))
	if cfg.Content != nil {
		if int64(len(cfg.Content)) != info.TotalLength() {
			return nil, fmt.Errorf("peer: content is %d bytes, torrent says %d",
				len(cfg.Content), info.TotalLength())
		}
		for i := 0; i < info.NumPieces(); i++ {
			lo, hi := n.pieceRange(i)
			if !info.VerifyPiece(i, cfg.Content[lo:hi]) {
				return nil, fmt.Errorf("peer: content fails hash check at piece %d", i)
			}
		}
		n.content = append([]byte(nil), cfg.Content...)
		for i := 0; i < info.NumPieces(); i++ {
			n.have.Set(i)
		}
		n.haveCount = info.NumPieces()
		n.signalDone()
	} else {
		n.content = make([]byte, info.TotalLength())
	}
	return n, nil
}

func (n *Node) pieceRange(i int) (lo, hi int64) {
	lo = int64(i) * n.info.PieceLength
	hi = lo + n.info.PieceSize(i)
	return lo, hi
}

// PeerID returns this node's peer id.
func (n *Node) PeerID() [20]byte { return n.peerID }

// InfoHash returns the torrent's infohash.
func (n *Node) InfoHash() metainfo.InfoHash { return n.infoHash }

// Start begins listening, announcing, and dialing.
func (n *Node) Start() error {
	listen := n.cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		return err
	}
	n.listener = ln
	n.wg.Add(2)
	go n.acceptLoop()
	go n.announceLoop()
	n.dialAddrs(n.cfg.Bootstrap)
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (n *Node) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Port returns the bound TCP port.
func (n *Node) Port() int {
	if n.listener == nil {
		return 0
	}
	return n.listener.Addr().(*net.TCPAddr).Port
}

// Done is closed once the download completes (immediately for seeders).
func (n *Node) Done() <-chan struct{} { return n.doneCh }

// Progress returns pieces held and the total piece count.
func (n *Node) Progress() (have, total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.haveCount, n.info.NumPieces()
}

// Complete reports whether the node holds the full content.
func (n *Node) Complete() bool {
	have, total := n.Progress()
	return have == total
}

// Bytes returns a copy of the assembled content; it is only meaningful
// once Complete.
func (n *Node) Bytes() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]byte(nil), n.content...)
}

// BytesLeft returns the number of content bytes still missing.
func (n *Node) BytesLeft() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var left int64
	for i := 0; i < n.info.NumPieces(); i++ {
		if !n.have.Has(i) {
			left += n.info.PieceSize(i)
		}
	}
	return left
}

// Stop announces departure and tears down all connections. It is safe to
// call more than once.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	conns := n.connsBut(nil)
	n.mu.Unlock()

	close(n.stopCh)
	if n.listener != nil {
		_ = n.listener.Close()
	}
	for _, c := range conns {
		_ = c.c.Close()
	}
	// Best-effort goodbye to the tracker.
	_, _ = n.announce("stopped")
	n.wg.Wait()
}

// logf reports a lifecycle event through Config.Logf, if set.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// dial performs one outgoing connection through the configured dialer.
func (n *Node) dial(addr string) (net.Conn, error) {
	dial := n.cfg.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	return dial("tcp", addr, n.cfg.DialTimeout)
}

// minBackoff is the floor backoffAfter clamps a non-positive (or
// sub-floor) base to; rng.Int63n needs a positive argument, so a
// caller-supplied base of 0 would otherwise panic.
const minBackoff = time.Millisecond

// backoffAfter returns the capped-exponential-with-jitter delay to wait
// after the given consecutive-failure count (1 = first failure).
func backoffAfter(failures int, base, cap time.Duration, rng *mrand.Rand) time.Duration {
	if failures < 1 {
		failures = 1
	}
	if base < minBackoff {
		base = minBackoff
	}
	if cap < base {
		cap = base
	}
	d := base
	for i := 1; i < failures && d < cap; i++ {
		d *= 2
		if d <= 0 { // doubling overflowed; the cap is the answer
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	// Uniform jitter in [d/2, d): desynchronises retry herds.
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

func (n *Node) signalDone() {
	n.doneOnce.Do(func() { close(n.doneCh) })
}

// ---------------------------------------------------------------------------
// Tracker interaction.

func (n *Node) announceReq(event string) tracker.AnnounceRequest {
	return tracker.AnnounceRequest{
		TrackerURL: n.cfg.Torrent.Announce,
		InfoHash:   n.infoHash,
		PeerID:     n.peerID,
		Port:       n.Port(),
		Uploaded:   n.uploaded.Load(),
		Downloaded: n.downloaded.Load(),
		Left:       n.BytesLeft(),
		Event:      event,
		NumWant:    maxPeers,
	}
}

// announce performs one tracker exchange over whichever scheme the
// torrent's announce URL names (http(s):// or udp://).
func (n *Node) announce(event string) (*tracker.AnnounceResponse, error) {
	return tracker.AnnounceWith(n.cfg.HTTPClient, n.cfg.UDP, n.announceReq(event))
}

// announceLoop announces on the tracker interval, retrying failures
// with capped exponential backoff. Temporary failures (tracker down,
// 5xx, garbled response) retry faster than the full interval; fatal
// rejections ("torrent unregistered") keep the normal cadence — a hot
// retry cannot fix them, but a tracker-side fix should be picked up.
func (n *Node) announceLoop() {
	defer n.wg.Done()
	interval := n.cfg.AnnounceInterval
	event := "started"
	failures := 0
	for {
		resp, err := n.announce(event)
		if err == nil {
			n.m.announceOK.Inc()
			if failures > 0 {
				n.logf("announce recovered after %d failed attempts", failures)
			}
			failures = 0
			event = "" // the event landed; don't repeat it
			if interval == 0 {
				interval = resp.Interval
			}
			if !n.cfg.DisableTrackerPeers {
				addrs := make([]string, 0, len(resp.Peers))
				for _, p := range resp.Peers {
					addrs = append(addrs, p.String())
				}
				n.rememberAddrs(addrs)
				n.dialAddrs(addrs)
			}
		} else if tracker.IsTemporary(err) {
			failures++
			n.m.announceTemp.Inc()
			n.logf("announce failed (temporary, attempt %d): %v", failures, err)
		} else {
			// The tracker answered and said no; retrying sooner won't help.
			failures = 0
			n.m.announceFatal.Inc()
			n.logf("announce rejected (fatal): %v", err)
		}
		n.broadcastPex()
		if interval <= 0 {
			interval = tracker.DefaultInterval
		}
		wait := interval
		if failures > 0 {
			// Retry sooner than the full interval, backing off toward it.
			base := interval / 8
			if base < 50*time.Millisecond {
				base = 50 * time.Millisecond
			}
			n.mu.Lock()
			wait = backoffAfter(failures, base, interval, n.rng)
			n.mu.Unlock()
		}
		select {
		case <-n.stopCh:
			return
		case <-time.After(wait):
		}
	}
}

// rememberAddrs records peer listen addresses for PEX gossip.
func (n *Node) rememberAddrs(addrs []string) {
	self := n.Addr()
	n.mu.Lock()
	for _, a := range addrs {
		if a != self {
			n.known[a] = true
		}
	}
	n.mu.Unlock()
}

// knownAddrs returns the PEX gossip set.
func (n *Node) knownAddrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.known))
	for a := range n.known {
		out = append(out, a)
	}
	return out
}

// dialAddrs connects to every address not already connected or inside
// its failure-backoff window. Dial failures back off exponentially (with
// jitter) per address; a connection that later drops clears its dialed
// mark so churned peers are re-dialed on the next discovery round.
func (n *Node) dialAddrs(addrs []string) {
	self := n.Addr()
	now := time.Now()
	for _, addr := range addrs {
		if addr == self {
			continue
		}
		n.mu.Lock()
		skip := n.dialed[addr] || n.stopped || len(n.conns) >= maxPeers ||
			now.Before(n.nextDial[addr])
		if !skip {
			n.dialed[addr] = true
		}
		n.mu.Unlock()
		if skip {
			continue
		}
		n.wg.Add(1)
		go func(addr string) {
			defer n.wg.Done()
			n.m.dials.Inc()
			c, err := n.dial(addr)
			if err != nil {
				n.m.dialFailures.Inc()
				n.mu.Lock()
				delete(n.dialed, addr) // allow a retry once the backoff passes
				n.dialFails[addr]++
				wait := backoffAfter(n.dialFails[addr],
					250*time.Millisecond, 15*time.Second, n.rng)
				n.nextDial[addr] = time.Now().Add(wait)
				fails := n.dialFails[addr]
				n.mu.Unlock()
				n.logf("dial %s failed (%d consecutive, next try in %v): %v",
					addr, fails, wait.Round(time.Millisecond), err)
				return
			}
			n.mu.Lock()
			delete(n.dialFails, addr)
			delete(n.nextDial, addr)
			n.mu.Unlock()
			n.runConn(c, true)
			// The connection ended — churn, reset, or shutdown. Unmark the
			// address so a future announce/PEX round may reconnect.
			n.mu.Lock()
			delete(n.dialed, addr)
			n.mu.Unlock()
		}(addr)
	}
}

// broadcastPex gossips the known-address set to every PEX-capable
// connection (BEP-11; idempotent for receivers, which dedupe by
// address).
func (n *Node) broadcastPex() {
	var added []wire.PexPeer
	for _, a := range n.knownAddrs() {
		ap, err := netip.ParseAddrPort(a)
		if ip := ap.Addr().Unmap(); err == nil && ip.Is4() {
			added = append(added, wire.PexPeer{IP: ip.AsSlice(), Port: ap.Port()})
		}
	}
	body, err := wire.MarshalPex(wire.PexMessage{Added: added})
	if len(added) == 0 || err != nil {
		return
	}
	n.mu.Lock()
	conns := n.connsBut(nil)
	n.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		pexID := c.remote.pexID
		c.mu.Unlock()
		if pexID != 0 {
			_ = c.write(&wire.Message{Type: wire.MsgExtended, Block: wire.ExtendedPayload(byte(pexID), body)})
		}
	}
}

// ---------------------------------------------------------------------------
// Connections.

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runConn(c, false)
		}()
	}
}

// runConn performs the handshake and runs the message loop until the
// connection dies.
func (n *Node) runConn(netc net.Conn, initiator bool) {
	defer netc.Close()
	_ = netc.SetDeadline(time.Now().Add(10 * time.Second))
	hs, err := handshake(netc, wire.Handshake{InfoHash: n.infoHash, PeerID: n.peerID, Extensions: true}, initiator)
	if err != nil {
		return
	}

	c := &conn{
		c:      netc,
		remote: newRemote(n.info.NumPieces(), netc.RemoteAddr().String(), n.copies),
		choked: true,
	}
	c.writeMu.Lock() // our bitfield goes out before any have receivePiece sends c (BEP 3)
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		c.writeMu.Unlock()
		return
	}
	n.conns[c] = struct{}{}
	bf := n.have.Clone()
	n.mu.Unlock()
	n.m.connections.Add(1)

	defer n.dropConn(c)
	// Under the handshake's deadline; c.write and the read loop set their own.
	err = wire.WriteMessage(netc, &wire.Message{Type: wire.MsgBitfield, Bitfield: bf})
	c.writeMu.Unlock()
	if err != nil {
		return
	}
	if hs.Extensions {
		_ = c.write(extHandshake(n.Port()))
	}
	for {
		_ = netc.SetReadDeadline(time.Now().Add(2 * time.Minute))
		msg, err := wire.ReadMessage(netc)
		if err != nil {
			return
		}
		if msg == nil {
			continue // keep-alive
		}
		if err := n.handleMessage(c, msg); err != nil {
			return
		}
	}
}

func (n *Node) dropConn(c *conn) {
	n.m.connections.Add(-1)
	c.mu.Lock() // c.mu before n.mu, as in requestMore
	n.mu.Lock()
	delete(n.conns, c)
	c.remote.tally(-1)
	c.choked = true // requestMore claims nothing more for c
	n.mu.Unlock()
	c.mu.Unlock()
	n.release(c, -1)
}

// connsBut lists the live connections other than except; n.mu must be
// held.
func (n *Node) connsBut(except *conn) []*conn {
	conns := make([]*conn, 0, len(n.conns))
	for c := range n.conns {
		if c != except {
			conns = append(conns, c)
		}
	}
	return conns
}

// release ends c's claim on piece, or on every piece it claims when piece
// is negative; n.pending holds the only record of a claim, so this is
// where every claim ends. A freed piece the node still lacks is offered
// to the other connections.
func (n *Node) release(c *conn, piece int) {
	n.mu.Lock()
	var others []*conn // set once a freed piece is still missing
	for p, holder := range n.pending {
		if holder == c && (piece < 0 || p == piece) {
			delete(n.pending, p)
			c.requests--
			if others == nil && !n.have.Has(p) {
				others = n.connsBut(c)
			}
		}
	}
	n.mu.Unlock()
	for _, oc := range others {
		n.requestMore(oc)
	}
}

func (c *conn) write(m *wire.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_ = c.c.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return wire.WriteMessage(c.c, m)
}

func (n *Node) handleMessage(c *conn, m *wire.Message) error {
	switch m.Type {
	case wire.MsgBitfield, wire.MsgHave, wire.MsgExtended:
		c.mu.Lock() // c.mu before n.mu: read keeps n.copies
		n.mu.Lock()
		listen, gossip, err := c.remote.read(m)
		useful := m.Type != wire.MsgExtended && n.wants(c.remote.have)
		n.mu.Unlock()
		c.mu.Unlock()
		if err != nil {
			return err
		}
		if listen != "" {
			n.rememberAddrs([]string{listen})
		}
		if len(gossip) > 0 {
			n.rememberAddrs(gossip)
			n.dialAddrs(gossip)
		}
		if useful {
			if err := c.write(&wire.Message{Type: wire.MsgInterested}); err != nil {
				return err
			}
			n.requestMore(c)
		}
	case wire.MsgInterested:
		// Generous policy: unchoke everyone immediately.
		return c.write(&wire.Message{Type: wire.MsgUnchoke})
	case wire.MsgChoke:
		c.mu.Lock()
		c.choked = true
		c.mu.Unlock()
		n.release(c, -1)
	case wire.MsgUnchoke:
		c.mu.Lock()
		c.choked = false
		c.mu.Unlock()
		n.requestMore(c)
	case wire.MsgRequest:
		return n.servePiece(c, m)
	case wire.MsgPiece:
		return n.receivePiece(c, m)
	case wire.MsgCancel:
		// Whole-piece transfers: nothing useful to cancel mid-write.
	}
	return nil
}

// wants reports whether bf holds a piece n lacks; n.mu must be held.
func (n *Node) wants(bf wire.Bitfield) bool {
	for i := 0; i < n.info.NumPieces(); i++ {
		if bf.Has(i) && !n.have.Has(i) {
			return true
		}
	}
	return false
}

// requestMore fills c's request pipeline with the pieces swarm.PickPiece
// picks among those the remote has and nobody is fetching: rarest first
// over the node's connections.
func (n *Node) requestMore(c *conn) {
	for {
		c.mu.Lock()
		n.mu.Lock()
		piece := -1
		if !c.choked && c.requests < pipeline {
			piece = swarm.PickPiece(n.info.NumPieces(), func(i int) bool {
				return c.remote.have.Has(i) && !n.have.Has(i) && n.pending[i] == nil
			}, n.copies, false, n.rng)
		}
		if piece >= 0 {
			n.pending[piece] = c
			c.requests++
		}
		n.mu.Unlock()
		c.mu.Unlock()
		if piece < 0 {
			return
		}
		req := &wire.Message{Type: wire.MsgRequest, Index: uint32(piece), Length: uint32(n.info.PieceSize(piece))}
		if err := c.write(req); err != nil {
			_ = c.c.Close() // its reader ends, and dropConn releases c's claims
			return
		}
	}
}

// servePiece answers a whole-piece request; under the generous policy
// no peer is ever choked, so every request for a piece we hold is served.
func (n *Node) servePiece(c *conn, m *wire.Message) error {
	idx := int(m.Index)
	n.mu.Lock()
	if idx < 0 || idx >= n.info.NumPieces() || !n.have.Has(idx) {
		n.mu.Unlock()
		return fmt.Errorf("peer: request for piece %d we lack", idx)
	}
	lo, hi := n.pieceRange(idx)
	block := append([]byte(nil), n.content[lo:hi]...)
	n.mu.Unlock()
	if int64(m.Begin) != 0 || int64(m.Length) != int64(len(block)) {
		return fmt.Errorf("peer: partial-piece request not supported (begin=%d len=%d)",
			m.Begin, m.Length)
	}
	if err := c.write(&wire.Message{Type: wire.MsgPiece, Index: m.Index, Begin: 0, Block: block}); err != nil {
		return err
	}
	n.uploaded.Add(int64(len(block)))
	n.m.bytesTx.Add(uint64(len(block)))
	return nil
}

// receivePiece verifies and stores an incoming piece.
func (n *Node) receivePiece(c *conn, m *wire.Message) error {
	idx := int(m.Index)
	if idx < 0 || idx >= n.info.NumPieces() {
		return fmt.Errorf("peer: piece index %d out of range", idx)
	}
	n.downloaded.Add(int64(len(m.Block)))
	n.m.bytesRx.Add(uint64(len(m.Block)))
	if !n.info.VerifyPiece(idx, m.Block) {
		n.m.hashFailures.Inc()
		n.release(c, idx) // so another connection re-fetches it
		return fmt.Errorf("peer: piece %d failed hash check", idx)
	}

	n.mu.Lock()
	fresh := !n.have.Has(idx)
	if fresh {
		lo, hi := n.pieceRange(idx)
		if int64(len(m.Block)) != hi-lo {
			n.mu.Unlock()
			return fmt.Errorf("peer: piece %d is %d bytes, want %d", idx, len(m.Block), hi-lo)
		}
		copy(n.content[lo:hi], m.Block)
		n.have.Set(idx)
		n.haveCount++
	}
	complete := n.haveCount == n.info.NumPieces()
	conns := n.connsBut(nil)
	n.mu.Unlock()
	n.release(c, idx)

	if fresh {
		n.m.piecesDone.Inc()
		for _, oc := range conns {
			_ = oc.write(&wire.Message{Type: wire.MsgHave, Index: m.Index})
		}
	}
	if complete {
		n.signalDone()
		// Tell the tracker we are now a seed (best effort, async).
		go func() { _, _ = n.announce("completed") }()
	}
	n.requestMore(c)
	return nil
}

// NumConns returns the number of live peer connections.
func (n *Node) NumConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// String identifies the node for logs.
func (n *Node) String() string {
	have, total := n.Progress()
	return "peer[" + n.Addr() + " " + strconv.Itoa(have) + "/" + strconv.Itoa(total) + "]"
}
