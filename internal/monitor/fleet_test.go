package monitor

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/peer"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/bittorrent/wire"
	"swarmavail/internal/faultnet"
	"swarmavail/internal/ingest"
	"swarmavail/internal/trace"
)

// fleetHarness is a complete measurement pipeline on loopback: a UDP
// tracker, a tiny swarm of fake peers (one seed, one zero-piece quiet
// leecher), and an availd-style ingest engine behind the binary stream
// protocol.
type fleetHarness struct {
	tor     *metainfo.Torrent
	udpURL  string
	engine  *ingest.Engine
	addr    string // stream ingest address
	seed    string // fake seed's host:port
	leecher string // fake quiet leecher's host:port
}

func newFleetHarness(t testing.TB) *fleetHarness {
	t.Helper()
	info, err := metainfo.New("fleet-content", 4096,
		[]metainfo.File{{Path: "f.bin", Length: 16 * 1024}}, make([]byte, 16*1024))
	if err != nil {
		t.Fatal(err)
	}

	srv := tracker.NewServer()
	pc, closeUDP, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = closeUDP() })
	udpURL := "udp://" + pc.LocalAddr().String()
	tor := &metainfo.Torrent{Announce: udpURL, Info: *info}
	ih, err := info.Hash()
	if err != nil {
		t.Fatal(err)
	}

	h := &fleetHarness{tor: tor, udpURL: udpURL}
	h.seed = fakePeer(t, ih, info.NumPieces(), true)
	h.leecher = fakePeer(t, ih, info.NumPieces(), false)

	// Register both fake peers over the UDP protocol itself.
	uc := &tracker.UDPClient{Timeout: 500 * time.Millisecond}
	for i, reg := range []struct {
		addr string
		left int64
	}{{h.seed, 0}, {h.leecher, 1 << 20}} {
		host, portStr, err := net.SplitHostPort(reg.addr)
		if err != nil {
			t.Fatal(err)
		}
		port := mustAtoi(t, portStr)
		var id [20]byte
		id[0] = byte('A' + i)
		if _, err := uc.Announce(tracker.AnnounceRequest{
			TrackerURL: udpURL, InfoHash: ih, PeerID: id,
			Port: port, Left: reg.left, Event: "started", IP: host,
		}); err != nil {
			t.Fatalf("register fake peer %d: %v", i, err)
		}
	}

	h.engine = ingest.New(ingest.Config{Shards: 2})
	t.Cleanup(h.engine.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := ingest.NewStreamServer(h.engine, nil)
	done := make(chan struct{})
	go func() { defer close(done); _ = ss.Serve(ln) }()
	t.Cleanup(func() { _ = ln.Close(); ss.Close(); <-done })
	h.addr = ln.Addr().String()
	return h
}

func mustAtoi(t testing.TB, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("bad port %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// fakePeer serves the probe-visible slice of the wire protocol: it
// handshakes and — when seed — advertises a complete bitfield; the
// leecher variant stays silent (the zero-piece case the probeOne bugfix
// covers).
func fakePeer(t testing.TB, ih metainfo.InfoHash, numPieces int, seed bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_ = c.SetDeadline(time.Now().Add(30 * time.Second))
				if _, err := wire.ReadHandshake(c); err != nil {
					return
				}
				var id [20]byte
				copy(id[:], "-SAFAKE-peer00000000")
				if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: ih, PeerID: id}); err != nil {
					return
				}
				if seed {
					bf := wire.NewBitfield(numPieces)
					for i := 0; i < numPieces; i++ {
						bf.Set(i)
					}
					_ = wire.WriteMessage(c, &wire.Message{Type: wire.MsgBitfield, Bitfield: bf})
				}
				buf := make([]byte, 256)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

func testMeta(id int) *trace.SwarmMeta {
	return &trace.SwarmMeta{
		ID: id, Category: trace.Movies, Title: "fleet-test",
		Files: []trace.FileMeta{{Name: "f.bin", SizeKB: 16}},
	}
}

// runFleet drives a fleet against the harness and asserts the
// exactly-once pipeline invariant: every record handed to a stream
// client is applied by the engine exactly once — none lost, none
// duplicated — plus the swarm registration.
func runFleetTest(t *testing.T, h *fleetHarness, cfg Config) Stats {
	t.Helper()
	cfg.Torrent = h.tor
	cfg.SwarmID = 42
	cfg.Stream = ingest.StreamClientConfig{Addr: h.addr, Source: "fleet-test"}
	cfg.Meta = testMeta(42)
	cfg.HorizonDays = 30

	stats, err := (&mustFleet{t, cfg}).run()
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}

	// An ack means queued (and journaled), not yet applied: barrier
	// before counting applied ops.
	h.engine.Flush()
	m := h.engine.Metrics()
	wantApplied := stats.RecordsEmitted + 1 // + the MetaOp registration
	if m.Applied != wantApplied {
		t.Fatalf("engine applied %d ops, fleet emitted %d (+1 meta): lost/duplicated records",
			m.Applied, stats.RecordsEmitted)
	}
	if stats.Rounds == 0 || stats.Rounds == stats.ProbeFailures {
		t.Fatalf("no successful probe rounds (rounds=%d failures=%d)", stats.Rounds, stats.ProbeFailures)
	}
	if stats.SeedRounds == 0 {
		t.Fatal("no round observed the seed — probe pipeline is blind")
	}
	return stats
}

type mustFleet struct {
	t   *testing.T
	cfg Config
}

func (mf *mustFleet) run() (Stats, error) {
	f, err := New(mf.cfg)
	if err != nil {
		mf.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return f.Run(ctx)
}

// TestFleetSmoke64 is the CI monitor-fleet job's assertion: 64
// concurrent monitors over the UDP tracker, exact streamed record
// count, race detector clean.
func TestFleetSmoke64(t *testing.T) {
	h := newFleetHarness(t)
	stats := runFleetTest(t, h, Config{
		Monitors:   64,
		Rounds:     2,
		Interval:   300 * time.Millisecond,
		DialBudget: 32,
		Probe: peer.ProbeConfig{
			DialTimeout:  2 * time.Second,
			BitfieldWait: 150 * time.Millisecond,
			UDP:          &tracker.UDPClient{Timeout: 500 * time.Millisecond, MaxRetransmits: 3},
		},
	})
	// Each successful round sees the seed and the quiet leecher; with
	// 64 monitors × 2 rounds the record volume must be substantial.
	if stats.PeersObserved < 64 {
		t.Fatalf("only %d peer observations across the fleet", stats.PeersObserved)
	}
}

// TestStatsComplete runs one round of two monitors — one announce
// refused at the socket, one through — against the seeded swarm with a
// stream, then checks by reflection that no exported Stats field is
// left at zero. The instruments are the only tally, so a Stats field
// added without one fails here. The round hook must tell the same story.
func TestStatsComplete(t *testing.T) {
	h := newFleetHarness(t)
	var dials atomic.Int32
	var mu sync.Mutex
	var rounds []Round
	stats := runFleetTest(t, h, Config{
		Monitors: 2,
		Rounds:   1,
		Probe: peer.ProbeConfig{
			DialTimeout:  2 * time.Second,
			BitfieldWait: 150 * time.Millisecond,
			UDP: &tracker.UDPClient{
				Timeout: 500 * time.Millisecond,
				Dial: func(addr string) (net.Conn, error) {
					if dials.Add(1) == 1 {
						return nil, errors.New("injected: no socket for the first announce")
					}
					return net.Dial("udp", addr)
				},
			},
		},
		OnRound: func(r Round) {
			mu.Lock()
			rounds = append(rounds, r)
			mu.Unlock()
		},
	})
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("Stats.%s is zero after a round that exercised every instrument — Fleet.Stats missed it", v.Type().Field(i).Name)
		}
	}
	if len(rounds) != 2 {
		t.Fatalf("round hook ran %d times for 2 monitors × 1 round", len(rounds))
	}
	failed, seeds, peers := 0, 0, 0
	for _, r := range rounds {
		if r.Err != nil {
			failed++
		}
		seeds += r.Seeds
		peers += r.Peers
	}
	if failed != stats.ProbeFailures || peers != stats.PeersObserved || seeds != 1 {
		t.Fatalf("hook saw %d failures, %d peers, %d seeds; stats %+v (want 1 seed: the harness has one)", failed, peers, seeds, stats)
	}
}

// TestFleetThousandMonitorsUnderDatagramLoss is the end-to-end
// acceptance proof: ≥1000 concurrent monitors announce over the BEP 15
// UDP tracker through 15%% datagram loss (plus duplication and
// reordering), stream observations into the engine via the binary
// protocol, and not one record is lost or double-applied.
func TestFleetThousandMonitorsUnderDatagramLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-monitor e2e skipped in -short")
	}
	h := newFleetHarness(t)
	fn := faultnet.New(faultnet.Config{
		Seed:        7,
		LossProb:    0.15,
		DupProb:     0.05,
		ReorderProb: 0.05,
	})
	uc := &tracker.UDPClient{
		// Short base timeout so loss-triggered retransmits stay cheap;
		// enough retries that a whole announce almost never dies.
		Timeout:        150 * time.Millisecond,
		MaxRetransmits: 6,
		Dial: func(addr string) (net.Conn, error) {
			raw, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			return fn.Datagram(raw), nil
		},
	}
	stats := runFleetTest(t, h, Config{
		Monitors:   1000,
		Rounds:     2,
		Interval:   500 * time.Millisecond,
		DialBudget: 128,
		Probe: peer.ProbeConfig{
			DialTimeout:  2 * time.Second,
			BitfieldWait: 100 * time.Millisecond,
			UDP:          uc,
		},
	})
	if fs := fn.Stats(); fs.DatagramsLost == 0 {
		t.Fatalf("fault layer injected no datagram loss (%+v) — the chaos half of the test is dead", fs)
	}
	t.Logf("fleet: %d rounds (%d failed), %d peers observed, %d records, faults: %+v",
		stats.Rounds, stats.ProbeFailures, stats.PeersObserved, stats.RecordsEmitted, fn.Stats())
}

// BenchmarkFleetIngest measures the probe→diff→stream→apply pipeline:
// synthetic probe rounds (100 peers, 10% churn per round) diffed and
// streamed into a live engine.
func BenchmarkFleetIngest(b *testing.B) {
	e := ingest.New(ingest.Config{Shards: 4})
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ss := ingest.NewStreamServer(e, nil)
	done := make(chan struct{})
	go func() { defer close(done); _ = ss.Serve(ln) }()
	defer func() { _ = ln.Close(); ss.Close(); <-done }()

	sc := ingest.NewStreamClient(ingest.StreamClientConfig{
		Addr: ln.Addr().String(), Source: "bench-fleet",
	})
	if err := sc.Put(ingest.MetaOp(*testMeta(1), 30)); err != nil {
		b.Fatal(err)
	}

	const swarmPeers = 100
	diff := ingest.NewProbeDiff(1)
	round := make([]ingest.PeerObservation, swarmPeers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 10% churn: a sliding window over the peer-key space.
		base := uint64(i * swarmPeers / 10)
		for j := range round {
			round[j] = ingest.PeerObservation{Key: base + uint64(j) + 1, Seed: j%10 == 0}
		}
		for _, op := range diff.Ops(float64(i)*0.01, round) {
			if err := sc.Put(op); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := sc.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}
