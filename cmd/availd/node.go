package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// server is availd's one node. It is a standby — a cluster.Follower
// shipping its leader's WAL, no engine — or a leader: an engine, the
// HTTP API over it, a stream server on the binary listener and a
// checkpoint ticker. lead is the only way into the leader state, run at
// boot by a node that starts with an engine and at promotion by a
// standby; down is the only way out of either. A promoted follower is
// therefore a full leader by construction: there is no second place to
// forget a flag.
type server struct {
	opts options
	// reg is the process's one registry: the engine's on a leader from
	// boot, and on a standby the one its follower registers on and its
	// engine, at promotion, too — one scrape before and after.
	reg *obs.Registry
	// gate wraps the leader API in cluster epoch fencing: every response
	// carries this node's slot epoch, and requests from a newer era
	// demote the node (see cluster.EpochGate). Nil only in handler tests.
	gate *cluster.EpochGate
	// draining flips /v1/healthz to 503 ahead of shutdown so the
	// gateway's health checks stop routing here before the listeners
	// close.
	draining atomic.Bool

	apiAddr net.Addr
	binLn   net.Listener // -ingest-bin: bound at boot, served once there is an engine
	errc    chan error   // a listener that stopped serving; buffered for all three

	// Standby state, set at boot. The follower is closed, not dropped, at
	// promotion: its shipping gauges stay on the scrape.
	follower   *cluster.Follower
	standbyAPI http.Handler

	// Leader state. lead writes it once, under mu when a promotion races
	// shutdown, and publishes it to request goroutines through leading.
	mu       sync.Mutex
	leading  atomic.Bool
	engine   *ingest.Engine
	api      http.Handler
	streams  *ingest.StreamServer // nil without -ingest-bin
	ckptStop chan struct{}        // nil without periodic checkpoints
	ckptDone chan struct{}
}

// newEngineFromOpts builds the engine: plain in-memory by default, or —
// with -data-dir — a durable one recovered from its checkpoint and WAL.
// A leader's boot and a standby's promotion both come through here,
// which is what makes promotion a crash recovery under the node's own
// flags. reg, when non-nil, is the registry the engine's series join.
func newEngineFromOpts(opts options, reg *obs.Registry) (*ingest.Engine, error) {
	cfg := ingest.Config{Shards: opts.shards, BatchSize: opts.batch, Metrics: reg}
	if opts.dataDir == "" {
		return ingest.New(cfg), nil
	}
	policy, err := wal.ParseSyncPolicy(opts.fsync)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e, rs, err := ingest.OpenDurable(cfg, ingest.DurabilityConfig{
		Dir:       opts.dataDir,
		Fsync:     policy,
		SyncEvery: opts.fsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", opts.dataDir, err)
	}
	fmt.Printf("availd: recovered %s in %v (checkpoint seq %d, %d swarms; replayed %d ops from %d frames)\n",
		opts.dataDir, time.Since(start).Round(time.Millisecond),
		rs.CheckpointSeq, rs.CheckpointSwarms, rs.ReplayedOps, rs.ReplayedFrames)
	for _, skipped := range rs.SkippedCheckpoints {
		fmt.Fprintf(os.Stderr, "availd: skipped unreadable checkpoint %s\n", skipped)
	}
	opts.logger.Info("recovered",
		"dir", opts.dataDir,
		"fsync", policy.String(),
		"checkpoint_seq", rs.CheckpointSeq,
		"checkpoint_swarms", rs.CheckpointSwarms,
		"replayed_frames", rs.ReplayedFrames,
		"replayed_ops", rs.ReplayedOps,
		"truncated_bytes", rs.TruncatedBytes,
		"dropped_segments", rs.DroppedSegments,
		"bad_frame_seq", rs.BadFrameSeq,
		"skipped_checkpoints", rs.SkippedCheckpoints,
		"elapsed", time.Since(start))
	if rs.TruncatedBytes > 0 || rs.DroppedSegments > 0 || rs.BadFrameSeq != 0 {
		opts.logger.Warn("journal repaired on open",
			"truncated_bytes", rs.TruncatedBytes,
			"dropped_segments", rs.DroppedSegments,
			"bad_frame_seq", rs.BadFrameSeq)
	}
	return e, nil
}

// finalCheckpoint captures the (already drained) engine's state on the
// way out. Failure is reported but not fatal: the WAL alone recovers
// the same state, just more slowly.
func finalCheckpoint(e *ingest.Engine, opts options) {
	cs, err := e.Checkpoint()
	if err != nil {
		fmt.Fprintf(os.Stderr, "availd: final checkpoint: %v (journal remains authoritative)\n", err)
		opts.logger.Error("final checkpoint failed", "err", err)
		return
	}
	if !cs.Skipped {
		fmt.Printf("availd: checkpoint seq %d written (%d swarms, %d bytes, %v)\n",
			cs.Seq, cs.Swarms, cs.Bytes, cs.Duration.Round(time.Millisecond))
	}
	opts.logger.Info("final checkpoint", "seq", cs.Seq, "swarms", cs.Swarms,
		"bytes", cs.Bytes, "skipped", cs.Skipped, "duration", cs.Duration)
}

// newHTTPServer applies the shared slow-client protections: a peer that
// stalls mid-headers or mid-body cannot pin a connection goroutine
// forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// serve runs one node until ctx ends, then takes it down gracefully
// (see down): every record acknowledged to a client before the signal
// is applied before exit. With an engine the node leads from boot; with
// e nil it is a standby following opts.follow until promote gives it
// one. Either way every listener — the API, and with
// opts.admin / opts.ingestBin the observability surface and the binary
// stream — is bound here, so a port conflict fails the boot and never a
// failover. If ready/adminReady are non-nil they receive the bound
// addresses once the listeners are up (tests use ":0").
func serve(ctx context.Context, e *ingest.Engine, opts options, ready, adminReady chan<- net.Addr) error {
	opts = opts.withLogger()
	s := &server{opts: opts, reg: obs.NewRegistry(), errc: make(chan error, 3)}
	if e != nil {
		s.reg = e.Registry()
	}
	obs.RegisterProcessMetrics(s.reg)

	// The epoch gate is opened even without a data dir (memory-only) so
	// the cluster_epoch/fencing series exist on every configuration and
	// a stamped request fences an in-memory node the same way.
	var err error
	s.gate, err = cluster.OpenEpochGate(opts.dataDir, s.reg, s.warnf)
	if err != nil {
		return err
	}

	listen := func(addr string) (ln net.Listener) {
		if addr != "" && err == nil {
			ln, err = net.Listen("tcp", addr)
		}
		return ln
	}
	ln, adminLn := listen(opts.listen), listen(opts.admin)
	s.binLn = listen(opts.ingestBin)
	if err == nil {
		s.apiAddr = ln.Addr()
		if e != nil {
			s.lead(e)
		} else {
			err = s.follow(ctx)
		}
	}
	if err != nil {
		for _, l := range []net.Listener{ln, adminLn, s.binLn} {
			if l != nil {
				l.Close()
			}
		}
		return err
	}

	srv := newHTTPServer(obs.LogRequests(opts.logger, s))
	go func() { s.errc <- srv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr()
	}
	var adminSrv *http.Server
	if adminLn != nil {
		adminSrv = newHTTPServer(obs.LogRequests(opts.logger, obs.AdminHandler(s.reg, opts.pprof)))
		fmt.Printf("availd: admin on %s (pprof %v)\n", adminLn.Addr(), opts.pprof)
		opts.logger.Info("admin listener up", "addr", adminLn.Addr().String(), "pprof", opts.pprof)
		go func() { s.errc <- adminSrv.Serve(adminLn) }()
		if adminReady != nil {
			adminReady <- adminLn.Addr()
		}
	}
	if s.binLn != nil && opts.binReady != nil {
		opts.binReady <- s.binLn.Addr()
	}

	// A listener that stops serving takes the node down the same way a
	// signal does, and its error is what serve returns.
	var serveErr error
	select {
	case serveErr = <-s.errc:
	case <-ctx.Done():
		fmt.Println("availd: signal received, draining")
		opts.logger.Info("signal received, draining")
	}
	if err := s.down(srv, adminSrv); serveErr == nil {
		serveErr = err
	}
	return serveErr
}

func (s *server) warnf(format string, args ...any) {
	s.opts.logger.Warn(fmt.Sprintf(format, args...))
}

// follow starts the standby role: ship opts.follow's WAL and
// checkpoints into the data dir, in ingest.OpenDurable's layout, until
// promoted or shut down.
func (s *server) follow(ctx context.Context) error {
	f, err := cluster.NewFollower(cluster.FollowerConfig{
		LeaderURL: s.opts.follow,
		Dir:       s.opts.dataDir,
		PollEvery: s.opts.followPoll,
		Metrics:   s.reg,
		Logf: func(format string, args ...any) {
			s.opts.logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	go f.Run(ctx)
	s.follower, s.standbyAPI = f, s.standbyHandler()
	fmt.Printf("availd: following %s on %s (data %s)\n", s.opts.follow, s.apiAddr, s.opts.dataDir)
	s.opts.logger.Info("following", "leader", s.opts.follow, "addr", s.apiAddr.String(), "dir", s.opts.dataDir)
	return nil
}

// promote is the failover: a crash recovery of state the dead leader
// acknowledged — newest shipped checkpoint plus the shipped WAL tail —
// run as the leader's own boot. Stop shipping, newEngineFromOpts under
// this node's flags, adopt the successor epoch (0 = this node's own
// + 1), lead. Idempotent once leading; on failure the node stays a
// standby and the returned HTTP status says whose fault it was.
func (s *server) promote(epoch uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leading.Load() {
		return http.StatusOK, nil
	}
	if s.draining.Load() {
		return http.StatusServiceUnavailable, errors.New("draining")
	}
	start := time.Now()
	if err := s.follower.Close(); err != nil {
		return http.StatusInternalServerError, err
	}
	e, err := newEngineFromOpts(s.opts, s.reg)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	if epoch == 0 {
		epoch = s.gate.Epoch() + 1
	}
	if err := s.gate.Adopt(epoch); err != nil {
		e.Close()
		return http.StatusConflict, err
	}
	s.lead(e)
	fmt.Printf("availd: promoted at epoch %d in %v\n", epoch, time.Since(start).Round(time.Millisecond))
	s.opts.logger.Info("promoted", "epoch", epoch, "elapsed", time.Since(start))
	return http.StatusOK, nil
}

// lead takes a recovered engine to the leader state — the one "become
// leader" step. serve calls it at boot for a node that starts with an
// engine; promote calls it (holding mu) once the standby has stopped
// shipping, recovered and adopted the successor epoch.
func (s *server) lead(e *ingest.Engine) {
	s.engine = e
	registerSummaryMetrics(s.reg, e)
	s.api = obs.InstrumentHandler(s.reg, "api", s.handler())
	if s.binLn != nil {
		// The same engine behind a raw TCP protocol whose frames are
		// journal frames (DESIGN.md §12), behind the same epoch fence as
		// the API: a fenced node answers DATA with ERR state.
		s.streams = ingest.NewStreamServer(e, s.warnf)
		s.streams.Fenced = s.gate.Fenced
	}
	// Published before the stream listener is served, so that down either
	// sees the stream server and closes it, or has already closed the
	// listener it would accept on.
	s.leading.Store(true)
	fmt.Printf("availd: serving on %s (%d shards)\n", s.apiAddr, e.Shards())
	s.opts.logger.Info("serving", "addr", s.apiAddr.String(), "shards", e.Shards())
	if s.streams != nil {
		fmt.Printf("availd: binary ingest on %s\n", s.binLn.Addr())
		s.opts.logger.Info("binary ingest listener up", "addr", s.binLn.Addr().String())
		go func() { s.errc <- s.streams.Serve(s.binLn) }()
	}
	// Periodic checkpoints bound recovery time: boot cost is one
	// checkpoint load plus at most checkpointEvery worth of WAL replay.
	if s.opts.dataDir != "" && s.opts.checkpointEvery > 0 {
		s.ckptStop, s.ckptDone = make(chan struct{}), make(chan struct{})
		go s.checkpointLoop()
	}
}

func (s *server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.opts.checkpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			cs, err := s.engine.Checkpoint()
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "availd: checkpoint: %v\n", err)
				s.opts.logger.Error("checkpoint failed", "err", err)
			case !cs.Skipped:
				s.opts.logger.Info("checkpoint", "seq", cs.Seq, "swarms", cs.Swarms,
					"bytes", cs.Bytes, "duration", cs.Duration)
			}
		}
	}
}

// down takes the node out of service, whatever its role: advertise
// draining, wait out the grace, cut the binary streams, finish in-flight
// API requests, then release what the role holds — a leader drains its
// engine and folds the result into a final checkpoint, a standby closes
// its follower.
func (s *server) down(srv, adminSrv *http.Server) error {
	// Flip readiness before closing anything: /v1/healthz answers 503
	// draining while the listener is still up, and the grace period
	// gives health-checking gateways time to observe the transition and
	// stop routing here before connections start failing.
	s.draining.Store(true)
	if s.opts.drainGrace > 0 {
		time.Sleep(s.opts.drainGrace)
	}
	if s.binLn != nil {
		// Stop the binary stream first: closing the listener and the
		// active connections cuts every stream at a frame boundary —
		// acknowledged frames are in the engine, clients resend the rest
		// on reconnect (keyed frames make that exactly-once).
		s.binLn.Close()
		if s.leading.Load() {
			s.streams.Close()
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		// In-flight requests overran the grace period; the engine still
		// drains what they enqueued (late writes get ErrClosed → 503).
		fmt.Fprintf(os.Stderr, "availd: shutdown: %v\n", err)
	}
	if adminSrv != nil {
		// The admin listener stays up through the API drain so a final
		// scrape can observe the shutdown, then closes with it.
		if err := adminSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "availd: admin shutdown: %v\n", err)
		}
	}
	// The API is shut, so no promotion can start; mu waits out one whose
	// request overran the shutdown timeout.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.leading.Load() {
		return s.follower.Close()
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone // no checkpoint racing the drain
	}
	s.engine.Close()
	applied := s.engine.Metrics().Applied
	fmt.Printf("availd: drained, %d records applied\n", applied)
	s.opts.logger.Info("drained", "applied", applied)
	if s.opts.dataDir != "" {
		// The drained final state — every record acknowledged before the
		// signal — is folded into a shutdown checkpoint, so the next
		// boot loads it without replaying the journal.
		finalCheckpoint(s.engine, s.opts)
	}
	return nil
}

// registerSummaryMetrics exposes the engine's analytical state —
// swarm/peer population and busy periods — as gauges. They read the
// engine's lock-free snapshot (never the shard queues), and
// back-to-back callbacks within one scrape hit the engine's memoized
// merge, so scraping costs the write path nothing.
func registerSummaryMetrics(reg *obs.Registry, e *ingest.Engine) {
	get := func() *ingest.Summary { return e.Snapshot().Summary }
	reg.GaugeFunc("availd_swarms", func() float64 { return float64(get().Swarms) })
	reg.GaugeFunc("availd_study_swarms", func() float64 { return float64(get().StudySwarms) })
	reg.GaugeFunc("availd_census_swarms", func() float64 { return float64(get().CensusSwarms) })
	reg.GaugeFunc("availd_seeds_online", func() float64 { return float64(get().SeedsOnline) })
	reg.GaugeFunc("availd_leechers_online", func() float64 { return float64(get().LeechersOnline) })
	reg.GaugeFunc("availd_busy_periods", func() float64 { return float64(get().BusyPeriods) })
}
