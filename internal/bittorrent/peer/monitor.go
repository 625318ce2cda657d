package peer

import (
	"crypto/rand"
	"net"
	"net/http"
	"sort"
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
// wait expires. A peer of another torrent, or one that sends a message
// the node would refuse, is an error: it is not counted.
func probeOne(cfg ProbeConfig, addr string, ih metainfo.InfoHash, id [20]byte, numPieces int) (ProbeResult, []string, error) {
	c, err := cfg.Dial("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return ProbeResult{}, nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(cfg.DialTimeout))
	hs, err := handshake(c, wire.Handshake{InfoHash: ih, PeerID: id, Extensions: cfg.PEX}, true)
	if err != nil {
		return ProbeResult{}, nil, err
	}

	// From here on, the peer is reachable: silence or teardown is an
	// observation, not an error.
	_ = c.SetDeadline(time.Now().Add(cfg.BitfieldWait))
	if cfg.PEX && hs.Extensions {
		_ = wire.WriteMessage(c, extHandshake(0))
	}
	r := newRemote(numPieces, addr)
	var discovered []string
	for {
		m, err := wire.ReadMessage(c)
		if err != nil {
			break // silence or teardown: classify from what we saw
		}
		if m == nil {
			continue // keep-alive
		}
		listen, gossip, err := r.read(m)
		if err != nil {
			return ProbeResult{}, nil, err
		}
		if cfg.PEX {
			if listen != "" {
				discovered = append(discovered, listen)
			}
			discovered = append(discovered, gossip...)
		} else if m.Type == wire.MsgBitfield {
			// A bitfield settles the classification; without PEX there
			// is nothing more to learn, so leave rather than idle out
			// the deadline on every probed peer.
			break
		}
	}
	return ProbeResult{Addr: addr, Seed: r.seed(), Pieces: r.pieces}, discovered, nil
}
