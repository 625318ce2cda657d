package peer

import (
	"crypto/rand"
	"errors"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/bittorrent/wire"
)

// ProbeResult describes one peer observed by the monitoring agent.
type ProbeResult struct {
	// Addr is the peer's host:port.
	Addr string
	// Seed reports whether the peer's bitfield was complete.
	Seed bool
	// Pieces is the number of pieces the peer advertised.
	Pieces int
}

// ProbeConfig parameterises a monitoring probe with the same networking
// knobs a Node has: the dial timeout (DefaultDialTimeout if 0, and also
// the per-peer I/O deadline), an optional dialer override, and optional
// HTTP/UDP clients for the announce (whichever matches the tracker URL
// scheme is used).
type ProbeConfig struct {
	DialTimeout time.Duration
	Dial        DialFunc
	HTTPClient  *http.Client
	UDP         *tracker.UDPClient

	// BitfieldWait bounds how long probeOne waits for the first
	// post-handshake message before classifying a quiet peer as a
	// zero-piece leecher (DialTimeout if 0). Newly-joined leechers hold
	// nothing and legitimately skip the bitfield message, so silence is
	// data, not failure.
	BitfieldWait time.Duration

	// PEX keeps each probed connection open long enough to collect
	// BEP-11 gossip and expands the probe frontier with the addresses
	// learned — the §2 methodology's answer to trackers that return
	// only a sample of the swarm.
	PEX bool
}

// A probe asks the tracker for up to probeNumWant peers, probes at most
// probeMaxPeers per call (PEX discoveries included), and announces the
// advisory port probePort: the agent never accepts connections.
const (
	probeMaxPeers = 256
	probeNumWant  = 200
	probePort     = 6881
)

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.Dial == nil {
		c.Dial = net.DialTimeout
	}
	if c.BitfieldWait <= 0 {
		c.BitfieldWait = c.DialTimeout
	}
	return c
}

// Probe is the §2 monitoring methodology in miniature: join the swarm's
// control plane (announce to the tracker, HTTP or UDP), connect to each
// reported peer, record the bitfield it advertises, and classify seeds —
// without uploading or downloading any content. With cfg.PEX the
// frontier grows with gossip learned from probed peers, reaching swarm
// members the tracker's sample missed. The probe deregisters itself
// afterwards.
func Probe(t *metainfo.Torrent, cfg ProbeConfig) ([]ProbeResult, error) {
	cfg = cfg.withDefaults()
	info := &t.Info
	ih, err := info.Hash()
	if err != nil {
		return nil, err
	}
	var id [20]byte
	copy(id[:], "-SAMON0-")
	if _, err := rand.Read(id[8:]); err != nil {
		return nil, err
	}
	req := tracker.AnnounceRequest{
		TrackerURL: t.Announce,
		InfoHash:   ih,
		PeerID:     id,
		Port:       probePort,
		Left:       info.TotalLength(),
		NumWant:    probeNumWant,
		IP:         "127.0.0.1",
	}
	resp, err := tracker.AnnounceWith(cfg.HTTPClient, cfg.UDP, req)
	if err != nil {
		return nil, err
	}
	defer func() {
		req.Event = "stopped"
		_, _ = tracker.AnnounceWith(cfg.HTTPClient, cfg.UDP, req)
	}()

	frontier := make([]string, 0, len(resp.Peers))
	for _, p := range resp.Peers {
		frontier = append(frontier, p.String())
	}
	seen := make(map[string]bool, len(frontier))
	var out []ProbeResult
	for i := 0; i < len(frontier) && len(seen) < probeMaxPeers; i++ {
		addr := frontier[i]
		if seen[addr] {
			continue
		}
		seen[addr] = true
		r, discovered, err := probeOne(cfg, addr, ih, id, info.NumPieces())
		if err != nil {
			continue // unreachable peers are simply skipped, as on PlanetLab
		}
		out = append(out, r)
		// Deterministic expansion order keeps probe traces reproducible.
		sort.Strings(discovered)
		for _, d := range discovered {
			if !seen[d] {
				frontier = append(frontier, d)
			}
		}
	}
	return out, nil
}

// probeOne handshakes with one peer and classifies it from what it
// volunteers. A complete bitfield is a seed. Anything else — a partial
// bitfield, bare have messages, or post-handshake silence until
// BitfieldWait — is a leecher with the observed piece count: peers that
// hold zero pieces legitimately never send a bitfield, and dropping
// them (the old behavior) inflated measured seed fractions. With
// cfg.PEX the connection also collects gossiped addresses until the
// wait expires.
func probeOne(cfg ProbeConfig, addr string, ih metainfo.InfoHash, id [20]byte, numPieces int) (ProbeResult, []string, error) {
	res := ProbeResult{Addr: addr}
	c, err := cfg.Dial("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return res, nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(cfg.DialTimeout))
	hs := wire.Handshake{InfoHash: ih, PeerID: id, Extensions: cfg.PEX}
	if err := wire.WriteHandshake(c, hs); err != nil {
		return res, nil, err
	}
	remote, err := wire.ReadHandshake(c)
	if err != nil {
		return res, nil, err
	}
	if remote.InfoHash != ih {
		// BEP 3: a peer answering for another torrent is not in this swarm.
		return res, nil, errors.New("peer answered the handshake for another torrent")
	}

	// From here on, the peer is reachable: every exit path below is an
	// observation, not an error.
	deadline := time.Now().Add(cfg.BitfieldWait)
	_ = c.SetDeadline(deadline)
	have := wire.NewBitfield(numPieces)
	count := 0
	var discovered []string
	var pexID int64
	sawBitfield := false

	if cfg.PEX && remote.Extensions {
		body, err := wire.MarshalExtendedHandshake(wire.ExtendedHandshake{PexID: wire.ExtPexID})
		if err == nil {
			_ = wire.WriteMessage(c, &wire.Message{
				Type:  wire.MsgExtended,
				Block: wire.ExtendedPayload(wire.ExtHandshakeID, body),
			})
		}
	}

	finish := func() (ProbeResult, []string, error) {
		res.Pieces = count
		res.Seed = numPieces > 0 && count == numPieces
		return res, discovered, nil
	}
	for {
		m, err := wire.ReadMessage(c)
		if err != nil {
			return finish() // silence or teardown: classify from what we saw
		}
		if m == nil {
			continue // keep-alive
		}
		switch m.Type {
		case wire.MsgBitfield:
			have = m.Bitfield.Clone()
			count = have.Count(numPieces)
			sawBitfield = true
		case wire.MsgHave:
			if idx := int(m.Index); idx >= 0 && idx < numPieces && !have.Has(idx) {
				have.Set(idx)
				count++
			}
		case wire.MsgExtended:
			if !cfg.PEX {
				continue
			}
			subID, body, err := wire.SplitExtendedPayload(m.Block)
			if err != nil {
				continue
			}
			switch subID {
			case wire.ExtHandshakeID:
				if eh, err := wire.ParseExtendedHandshake(body); err == nil {
					pexID = eh.PexID
					if eh.Port > 0 {
						if host, _, err := net.SplitHostPort(addr); err == nil {
							listen := net.JoinHostPort(host, strconv.FormatInt(eh.Port, 10))
							if listen != addr {
								discovered = append(discovered, listen)
							}
						}
					}
				}
			case wire.ExtPexID, byte(pexID):
				// Accept both our advertised sub-ID and the one the
				// remote declared for itself (ParseExtendedHandshake
				// keeps it in 1..255; an unset id is 0, which the
				// handshake case above already takes).
				if pex, err := wire.ParsePex(body); err == nil {
					for _, p := range pex.Added {
						discovered = append(discovered, p.String())
					}
				}
			}
		}
		// A bitfield settles the classification; without PEX there is
		// nothing more to learn, so return early rather than idling out
		// the deadline on every probed peer.
		if sawBitfield && !cfg.PEX {
			return finish()
		}
	}
}
