package experiments

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/peer"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/faultnet"
	"swarmavail/internal/obs"
	"swarmavail/internal/plot"
)

func init() {
	register(Driver{
		ID:          "chaos",
		Description: "Seedless sustainability on the live TCP testbed under injected churn (resets + publisher departure)",
		Run:         Chaos,
	})
}

// Chaos re-runs the §4.2 seedless-sustainability experiment at reduced
// scale on the *real* BitTorrent stack — tracker, TCP peers, PEX — with
// a faultnet layer injecting latency and mid-stream connection resets
// throughout. The publisher departs the moment the first leecher
// completes (exactly the paper's protocol); the remaining leechers must
// finish from each other through the injected churn. A fixed seed fixes
// the fault decision stream, so the run is reproducible.
func Chaos(scale Scale, seed int64) (*Result, error) {
	res, _, err := chaosRun(scale, seed, nil)
	return res, err
}

// chaosRun is the driver body; tests use the returned fault stats to
// assert the run actually rode through injected failures, and pass a
// registry to see the whole fleet on it: the tracker and every peer
// node record there (tracker_*, peer_*), and the fault layer's counters
// land on it after the run (chaos_fault_*). nil records nothing.
func chaosRun(scale Scale, seed int64, reg *obs.Registry) (*Result, faultnet.Stats, error) {
	leechers := 4
	fileKB := 24
	deadline := 60 * time.Second
	if scale == Full {
		leechers = 8
		fileKB = 96
		deadline = 180 * time.Second
	}

	fnet := faultnet.New(faultnet.Config{
		Seed:      seed,
		Latency:   time.Millisecond,
		Jitter:    2 * time.Millisecond,
		ResetProb: 0.02,
	})
	listen := func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return fnet.Listener(ln), nil
	}
	httpClient := &http.Client{Transport: fnet.RoundTripper(nil), Timeout: 5 * time.Second}

	// Tracker + a K=2 bundle, the smallest configuration the paper's
	// bundling story needs.
	srv := tracker.NewServer()
	srv.Instrument(reg)
	trkLn, closeTrk, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, faultnet.Stats{}, err
	}
	defer closeTrk()

	content := make([]byte, 2*fileKB*1024)
	prng := newSplitMix(uint64(seed))
	for i := range content {
		content[i] = byte(prng())
	}
	info, err := metainfo.New("chaos-bundle", 4096, []metainfo.File{
		{Path: "ep1.bin", Length: int64(fileKB * 1024)},
		{Path: "ep2.bin", Length: int64(fileKB * 1024)},
	}, content)
	if err != nil {
		return nil, faultnet.Stats{}, err
	}
	tor := &metainfo.Torrent{
		Announce: "http://" + trkLn.Addr().String() + "/announce",
		Info:     *info,
	}

	mkPeer := func(c []byte) (*peer.Node, error) {
		return peer.New(peer.Config{
			Torrent:          tor,
			Content:          c,
			AnnounceInterval: 150 * time.Millisecond,
			DialTimeout:      2 * time.Second,
			Dial:             fnet.Dial,
			Listen:           listen,
			HTTPClient:       httpClient,
			Metrics:          reg,
		})
	}

	pub, err := mkPeer(content)
	if err != nil {
		return nil, faultnet.Stats{}, err
	}
	if err := pub.Start(); err != nil {
		return nil, faultnet.Stats{}, err
	}
	pubUp := true
	defer func() {
		if pubUp {
			pub.Stop()
		}
	}()

	start := time.Now()
	nodes := make([]*peer.Node, leechers)
	for i := range nodes {
		n, err := mkPeer(nil)
		if err != nil {
			return nil, faultnet.Stats{}, err
		}
		if err := n.Start(); err != nil {
			return nil, faultnet.Stats{}, err
		}
		defer n.Stop()
		nodes[i] = n
		time.Sleep(20 * time.Millisecond) // staggered arrivals
	}

	// Wait for completions; on the first one, the publisher departs —
	// its host dies on the fault layer too, so half-open dials to it
	// fail the way a vanished PlanetLab node's would.
	done := make([]float64, leechers)
	remaining := leechers
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	expire := time.After(deadline)
	for remaining > 0 {
		select {
		case <-expire:
			return nil, fnet.Stats(), fmt.Errorf(
				"chaos: %d of %d leechers unfinished after %v (faults injected: %+v)",
				remaining, leechers, deadline, fnet.Stats())
		case <-ticker.C:
		}
		for i, n := range nodes {
			if done[i] == 0 {
				select {
				case <-n.Done():
					done[i] = time.Since(start).Seconds()
					remaining--
					if pubUp {
						fnet.KillHost(pub.Addr())
						pub.Stop()
						pubUp = false
					}
				default:
				}
			}
		}
	}

	stats := fnet.Stats()
	reg.Counter("chaos_fault_resets_total").Add(stats.Resets)
	reg.Counter("chaos_fault_dials_denied_total").Add(stats.DialsDenied)
	reg.Counter("chaos_fault_truncations_total").Add(stats.Truncations)
	reg.Counter("chaos_fault_conns_wrapped_total").Add(stats.Conns)
	res := &Result{
		ID:          "chaos",
		Description: "Live-swarm seedless sustainability under fault injection",
	}
	tl := &plot.Timeline{
		Title:   "chaos: leecher downloads (publisher departs at first completion)",
		Horizon: time.Since(start).Seconds(),
	}
	var first float64
	for i, d := range done {
		if first == 0 || d < first {
			first = d
		}
		tl.Spans = append(tl.Spans, plot.Span{
			Label: fmt.Sprintf("leech%02d", i), Start: 0, End: d,
		})
	}
	plot.SortSpansByStart(tl.Spans)
	res.Timelines = append(res.Timelines, tl)
	res.Notef("all %d leechers completed a %d KB bundle; publisher departed at t=%.2f s", leechers, 2*fileKB, first)
	res.Notef("faults ridden through: %d resets, %d dials denied (of %d dials), %d conns wrapped",
		stats.Resets, stats.DialsDenied, stats.Dials, stats.Conns)
	return res, stats, nil
}

// newSplitMix returns a tiny deterministic byte stream generator
// (content bytes should not consume the faultnet decision stream).
func newSplitMix(state uint64) func() uint64 {
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
