package swarmavail

// Public facade over the runnable BitTorrent stack: torrents (including
// multi-file bundles), the HTTP tracker, live peers, and the §2-style
// monitoring probe. The bt tool (cmd/bt: bt tracker, bt node, bt mon)
// runs an end-to-end swarm on localhost, and TestBitTorrentFacadeEndToEnd
// drives one through this facade.

import (
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/peer"
	"swarmavail/internal/bittorrent/tracker"
)

// Torrent metainfo types.
type (
	// Torrent is a parsed .torrent (announce URL + info dictionary).
	Torrent = metainfo.Torrent
	// TorrentInfo is the info dictionary: name, piece hashes, files.
	TorrentInfo = metainfo.Info
	// TorrentFile is one file inside a torrent's content; two or more
	// make a bundle.
	TorrentFile = metainfo.File
	// InfoHash identifies a torrent (SHA-1 of the canonical info dict).
	InfoHash = metainfo.InfoHash
)

// NewTorrentInfo builds an info dictionary over content bytes, hashing
// pieces of the given length. files must partition the content.
func NewTorrentInfo(name string, pieceLength int64, files []TorrentFile, content []byte) (*TorrentInfo, error) {
	return metainfo.New(name, pieceLength, files, content)
}

// UnmarshalTorrent parses .torrent bytes.
func UnmarshalTorrent(data []byte) (*Torrent, error) { return metainfo.Unmarshal(data) }

// Tracker types and constructor.
type (
	// TrackerServer is an HTTP BitTorrent tracker (announce + scrape).
	TrackerServer = tracker.Server
	// AnnounceRequest/AnnounceResponse are the client-side announce API.
	AnnounceRequest  = tracker.AnnounceRequest
	AnnounceResponse = tracker.AnnounceResponse
)

// NewTracker returns an HTTP tracker; mount Handler or call Serve.
func NewTracker() *TrackerServer { return tracker.NewServer() }

// Peer node types.
type (
	// PeerConfig configures a live seeder or leecher.
	PeerConfig = peer.Config
	// PeerNode is a running BitTorrent peer.
	PeerNode = peer.Node
	// ProbeResult is one peer observed by the monitoring agent.
	ProbeResult = peer.ProbeResult
)

// NewPeer creates a peer node for the torrent (seed by supplying the
// content, leech by omitting it). Call Start to join the swarm.
func NewPeer(cfg PeerConfig) (*PeerNode, error) { return peer.New(cfg) }

// Probe joins a swarm's control plane, records the bitfields peers
// advertise and classifies seeds — the paper's §2 monitoring agent.
// The timeout bounds both the per-peer dial and its I/O deadline
// (peer.DefaultDialTimeout if 0).
func Probe(t *Torrent, timeout time.Duration) ([]ProbeResult, error) {
	return peer.Probe(t, peer.ProbeConfig{DialTimeout: timeout})
}
