// Package swarm is a block-level discrete-event simulator of a
// BitTorrent-like swarm: pieces, upload-capacity sharing, rarest-first
// piece selection, an intermittently available publisher, Poisson or
// trace-driven peer arrivals, selfish departures or altruistic lingering.
//
// It is the substitute for the paper's PlanetLab deployment of the
// mainline client (§4): it reproduces the macroscopic dynamics the
// experiments measure — busy periods sustained by peers, blocked leechers
// when the publisher holds the last copy of a piece, flash departures
// when it returns, and download-time-versus-bundle-size curves — while
// remaining deterministic and laptop-fast.
//
// One Config describes one torrent. A bundle is simply a torrent whose
// content is the concatenation of several files; peers always fetch the
// whole content (pure bundling, as in the paper's experiments), but each
// peer is tagged with the file class that brought it to the swarm so that
// per-file download times can be reported (§4.3.3).
package swarm

import (
	"fmt"
	"math"
	"sort"

	"swarmavail/internal/dist"
	"swarmavail/internal/obs"
)

// FileSpec describes one file carried by the torrent.
type FileSpec struct {
	// SizeKB is the file size in kilobytes.
	SizeKB float64
	// Lambda is the arrival rate (1/s) of peers whose primary interest is
	// this file. The torrent's aggregate peer arrival rate is the sum
	// over files, matching the paper's bundling demand model.
	Lambda float64
}

// PublisherMode selects the publisher's availability pattern.
type PublisherMode int

const (
	// PublisherAlwaysOn keeps the publisher online for the whole run.
	PublisherAlwaysOn PublisherMode = iota
	// PublisherOnOff alternates online/offline sojourns drawn from
	// Config.PublisherOn / Config.PublisherOff (starting online).
	PublisherOnOff
	// PublisherUntilFirstCompletion keeps the publisher online until the
	// first peer completes its download, then takes it offline for good —
	// the seedless-sustainability experiment of §4.2 (Figure 4).
	PublisherUntilFirstCompletion
)

// String implements fmt.Stringer.
func (m PublisherMode) String() string {
	switch m {
	case PublisherAlwaysOn:
		return "always-on"
	case PublisherOnOff:
		return "on-off"
	case PublisherUntilFirstCompletion:
		return "until-first-completion"
	default:
		return fmt.Sprintf("PublisherMode(%d)", int(m))
	}
}

// Config parameterises one simulation run.
type Config struct {
	// Seed drives all randomness in the run.
	Seed int64
	// Files is the content carried by the torrent (≥ 1 entry).
	Files []FileSpec
	// PieceSizeKB is the piece size; 256 KB (the mainline default) if 0.
	PieceSizeKB float64
	// PeerUpload is the distribution of per-peer upload capacity in KBps.
	// Use dist.Deterministic for the paper's homogeneous experiments and
	// dist.BitTyrantUploadCapacities() for §4.3.2.
	PeerUpload dist.Dist
	// PeerDownload optionally caps per-peer download capacity in KBps
	// (nil = unconstrained, the upload-constrained idealisation). Each
	// transfer then moves at min(uploader share, downloader share),
	// which models access-link asymmetry (PlanetLab hosts were ≈10 Mbps).
	PeerDownload dist.Dist
	// MaxUploads caps a node's concurrent outgoing transfers (the unchoke
	// slot count); 4 if 0.
	MaxUploads int
	// PublisherUploadKBps is the publisher's upload capacity.
	PublisherUploadKBps float64
	// PublisherMode, PublisherOn, PublisherOff configure publisher
	// availability; On/Off are required only for PublisherOnOff.
	PublisherMode PublisherMode
	PublisherOn   dist.Dist
	PublisherOff  dist.Dist
	// LingerMeanSeconds is the mean (exponential) time peers remain as
	// seeds after completing; 0 means selfish immediate departure.
	LingerMeanSeconds float64
	// DepartureLagSeconds is a small deterministic delay between
	// completing and disconnecting, modelling real client shutdown and
	// announce latency. It matters a great deal: with whole-piece
	// transfers and a zero lag, a peer that receives the last scarce
	// piece completes and vanishes before relaying it, so post-idle
	// backlogs drain at publisher speed only. Real BitTorrent clients
	// relay scarce blocks during their final seconds online, which is
	// what makes the paper's "flash departures" fast. The §4.3
	// experiment drivers set ≈15 s.
	DepartureLagSeconds float64
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// ArrivalCutoff stops admitting peers after this time while the
	// simulation continues to Horizon (0 means arrivals continue to the
	// horizon). The §4.3 experiments use 1200 s of arrivals but measure
	// the download time of every admitted peer, so the run must outlive
	// the last straggler's wait.
	ArrivalCutoff float64
	// Arrivals optionally overrides the aggregate peer arrival process
	// (e.g. a flash crowd or a recorded trace). When nil, a Poisson
	// process with rate Σ Lambda is used. Peer classes are always drawn
	// proportionally to the file Lambdas.
	Arrivals dist.ArrivalProcess
	// MaxArrivals is a safety cap on admitted peers (100000 if 0).
	MaxArrivals int
	// RandomPieceSelection replaces rarest-first with uniform-random
	// piece selection — the ablation target for the piece-selection
	// design choice (rarest-first is what keeps piece populations
	// balanced enough for peer-sustained busy periods).
	RandomPieceSelection bool
	// AbandonMeanSeconds makes peers impatient (§3.3.1 semantics in the
	// testbed): a leecher that has not completed after an exponential
	// time with this mean gives up and departs. 0 means peers are
	// patient and wait indefinitely.
	AbandonMeanSeconds float64
	// Metrics is an optional observability registry; each Run adds to
	// the swarm_sim_* series on it (runs, events, arrivals,
	// completions, busy periods, delivered/wasted volume, wall-clock
	// run time and event throughput). Does not affect determinism.
	Metrics *obs.Registry
}

func (c *Config) withDefaults() Config {
	cc := *c
	if cc.PieceSizeKB == 0 {
		cc.PieceSizeKB = 256
	}
	if cc.MaxUploads == 0 {
		cc.MaxUploads = 4
	}
	if cc.MaxArrivals == 0 {
		cc.MaxArrivals = 100000
	}
	return cc
}

// MaxPieces bounds the content of one torrent. Every peer holds a
// have-flag per piece and the engine a copy count per piece, so memory
// is pieces × (peers online + 1) bytes and up: at 2^20 pieces a
// thousand concurrent peers are 1 GiB. It is 256 GiB of content at the
// default piece size, four orders of magnitude above the paper's
// largest bundle (10 × 4 MB = 157 pieces).
const MaxPieces = 1 << 20

// positive reports whether x is a finite number above zero. The
// comparisons are written so that NaN fails them: x <= 0 is false for
// NaN, which the event queue then panics on or never gets past.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// nonNegative reports whether x is a finite number, zero or above.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate checks the configuration.
func (c *Config) Validate() error {
	cc := c.withDefaults()
	if len(cc.Files) == 0 {
		return fmt.Errorf("swarm: at least one file required")
	}
	var lambda float64
	for i, f := range cc.Files {
		if !positive(f.SizeKB) {
			return fmt.Errorf("swarm: file %d: size %v must be positive and finite", i, f.SizeKB)
		}
		if !nonNegative(f.Lambda) {
			return fmt.Errorf("swarm: file %d: arrival rate %v must be non-negative and finite", i, f.Lambda)
		}
		lambda += f.Lambda
	}
	if lambda <= 0 && cc.Arrivals == nil {
		return fmt.Errorf("swarm: aggregate arrival rate must be positive")
	}
	if !positive(cc.PieceSizeKB) {
		return fmt.Errorf("swarm: piece size %v must be positive and finite", cc.PieceSizeKB)
	}
	if pieces := cc.TotalSizeKB() / cc.PieceSizeKB; pieces > MaxPieces {
		return fmt.Errorf("swarm: %.3g pieces of content, at most %d", pieces, MaxPieces)
	}
	if cc.PeerUpload == nil {
		return fmt.Errorf("swarm: PeerUpload distribution required")
	}
	if !positive(cc.PublisherUploadKBps) {
		return fmt.Errorf("swarm: publisher upload capacity %v must be positive and finite", cc.PublisherUploadKBps)
	}
	if cc.PublisherMode == PublisherOnOff && (cc.PublisherOn == nil || cc.PublisherOff == nil) {
		return fmt.Errorf("swarm: PublisherOn/PublisherOff required for on-off mode")
	}
	if !positive(cc.Horizon) {
		return fmt.Errorf("swarm: horizon %v must be positive and finite", cc.Horizon)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ArrivalCutoff", cc.ArrivalCutoff},
		{"LingerMeanSeconds", cc.LingerMeanSeconds},
		{"DepartureLagSeconds", cc.DepartureLagSeconds},
		{"AbandonMeanSeconds", cc.AbandonMeanSeconds},
	} {
		if !nonNegative(f.v) {
			return fmt.Errorf("swarm: %s %v must be non-negative and finite", f.name, f.v)
		}
	}
	if cc.MaxUploads < 1 {
		return fmt.Errorf("swarm: MaxUploads must be ≥ 1")
	}
	return nil
}

// TotalSizeKB returns the content size of the torrent.
func (c *Config) TotalSizeKB() float64 {
	var s float64
	for _, f := range c.Files {
		s += f.SizeKB
	}
	return s
}

// NumPieces returns the number of pieces the content divides into.
func (c *Config) NumPieces() int {
	cc := c.withDefaults()
	n := int(math.Ceil(cc.TotalSizeKB() / cc.PieceSizeKB))
	if n < 1 {
		n = 1
	}
	return n
}

// AggregateLambda returns Σ Lambda over the files.
func (c *Config) AggregateLambda() float64 {
	var l float64
	for _, f := range c.Files {
		l += f.Lambda
	}
	return l
}

// PeerRecord is the lifecycle of one peer, mirroring the per-client
// traces the paper's controller collected.
type PeerRecord struct {
	// ID is the peer's admission index (0-based, in arrival order).
	ID int
	// Class is the index of the file whose demand generated this peer.
	Class int
	// Arrive is the arrival time (s).
	Arrive float64
	// Complete is the download completion time, or +Inf if the peer had
	// not finished by the horizon.
	Complete float64
	// Depart is the departure time (completion or end of lingering), or
	// +Inf if the peer was still online at the horizon.
	Depart float64
	// UploadKBps is the peer's upload capacity.
	UploadKBps float64
	// Abandoned reports that the peer gave up before completing (only
	// possible with Config.AbandonMeanSeconds > 0).
	Abandoned bool
}

// Completed reports whether the peer finished its download in the run.
func (p PeerRecord) Completed() bool { return !math.IsInf(p.Complete, 1) }

// DownloadTime returns Complete − Arrive (or +Inf if incomplete).
func (p PeerRecord) DownloadTime() float64 { return p.Complete - p.Arrive }

// Result aggregates everything a run produced.
type Result struct {
	// Config echoes the (defaulted) configuration of the run.
	Config Config
	// Records holds one entry per admitted peer, in arrival order.
	Records []PeerRecord
	// PublisherSessions are the publisher's online intervals.
	PublisherSessions []dist.Interval
	// AvailableIntervals are the intervals during which the content was
	// available: the publisher online, or every piece held by at least
	// one online peer.
	AvailableIntervals []dist.Interval
	// TotalPieces is the piece count of the content.
	TotalPieces int
	// Horizon is the simulated duration.
	Horizon float64
	// DeliveredKB is the total volume of completed piece transfers — the
	// network traffic the swarm generated (the paper's future-work
	// question about bundling's traffic cost).
	DeliveredKB float64
	// WastedKB is the volume moved by transfers that were aborted
	// mid-piece (publisher departures, peer churn) and discarded.
	WastedKB float64
}

// AbandonedCount returns the number of peers that gave up.
func (r *Result) AbandonedCount() int {
	n := 0
	for _, p := range r.Records {
		if p.Abandoned {
			n++
		}
	}
	return n
}

// TrafficOverhead returns DeliveredKB divided by the volume peers
// actually came for (completed peers × one file of interest each): the
// bundling traffic multiplier. It returns 0 when nothing completed.
func (r *Result) TrafficOverhead() float64 {
	completed := r.CompletedCount()
	if completed == 0 || len(r.Config.Files) == 0 {
		return 0
	}
	var wanted float64
	for _, p := range r.Records {
		if p.Completed() {
			wanted += r.Config.Files[p.Class].SizeKB
		}
	}
	if wanted == 0 {
		return 0
	}
	return r.DeliveredKB / wanted
}

// DownloadTimes returns the download times of all completed peers, in
// completion order.
func (r *Result) DownloadTimes() []float64 {
	var out []float64
	for _, p := range r.Records {
		if p.Completed() {
			out = append(out, p.DownloadTime())
		}
	}
	return out
}

// DownloadTimesByClass returns completed download times for peers of one
// file class.
func (r *Result) DownloadTimesByClass(class int) []float64 {
	var out []float64
	for _, p := range r.Records {
		if p.Class == class && p.Completed() {
			out = append(out, p.DownloadTime())
		}
	}
	return out
}

// CompletionTimes returns the sorted times at which downloads completed —
// the series plotted in Figure 4.
func (r *Result) CompletionTimes() []float64 {
	var out []float64
	for _, p := range r.Records {
		if p.Completed() {
			out = append(out, p.Complete)
		}
	}
	sort.Float64s(out)
	return out
}

// CompletedCount returns the number of peers served within the horizon.
func (r *Result) CompletedCount() int {
	n := 0
	for _, p := range r.Records {
		if p.Completed() {
			n++
		}
	}
	return n
}

// AvailabilityFraction returns the fraction of the horizon during which
// the content was available.
func (r *Result) AvailabilityFraction() float64 {
	return dist.AvailableFraction(r.AvailableIntervals, r.Horizon)
}

// PublisherAvailabilityFraction returns the fraction of the horizon the
// publisher was online (the §2 seed-availability statistic).
func (r *Result) PublisherAvailabilityFraction() float64 {
	return dist.AvailableFraction(r.PublisherSessions, r.Horizon)
}
