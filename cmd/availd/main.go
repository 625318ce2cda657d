// Command availd is the online availability-analytics daemon: the
// serving front end of internal/ingest. It consumes monitor records —
// live over HTTP or replayed from archived JSONL campaigns — and
// answers the §2 availability and bundling questions continuously
// instead of after the campaign ends.
//
// Endpoints:
//
//	GET  /v1/swarm/{id}          one swarm's online stats
//	GET  /v1/summary             engine-wide aggregate + headline stats
//	GET  /v1/availability/cdf    availability quantiles + headline stats
//	                             (?q=0.25,0.5,… to pick quantiles)
//	GET  /v1/bundling/summary    per-category bundling counters
//	GET  /v1/availability/window trailing ?d= window of time-binned availability
//	GET  /v1/state, /v1/window/state  mergeable wire forms (gateway scatter-gather)
//	POST /v1/ingest              JSONL monitor records (ingest.Record)
//	GET  /metrics                registry scrape (Prometheus text)
//	GET  /debug/vars             same series as flat JSON
//	GET  /healthz                liveness
//
// With -admin the same observability surface (plus opt-in
// net/http/pprof via -pprof) is additionally served on a separate
// listener, so operators can firewall the API port without losing
// scrapes:
//
//	availd -listen :8647 -admin 127.0.0.1:8648 -pprof
//
// Replay mode streams an archived availability study (and optionally a
// census) through the full ingest path:
//
//	availd -replay data/availability_study.jsonl -census data/census.jsonl -verify
//
// With -verify it recomputes the offline internal/measure statistics in
// the same pass and checks the online results converge: per-swarm
// availabilities within 1e-9 (the arithmetic is shared and ordered
// identically, so they agree bitwise) and CDF quantiles equal to the
// offline sketch of the same geometry (each accurate to one sketch bin,
// ±1/4096, against the exact order statistics). A tolerance violation
// exits non-zero. Add -listen to keep serving after a replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/measure"
	"swarmavail/internal/obs"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// options carries the CLI configuration through run and serve; tests
// construct it directly (zero value = API listener only, no admin, no
// request logging).
type options struct {
	listen  string // API listen address; empty = no server
	admin   string // optional separate observability listener
	pprof   bool   // mount net/http/pprof on the admin listener
	shards  int
	batch   int
	replay  string
	census  string
	push    string
	writers int
	verify  bool
	logger  *slog.Logger // structured request + lifecycle log (nil = off)

	// Durability: with dataDir set the engine journals every accepted
	// batch to a WAL and recovers checkpoint + tail on boot.
	dataDir         string
	fsync           string        // WAL sync policy: batch, interval or off
	fsyncInterval   time.Duration // cadence under -fsync interval
	checkpointEvery time.Duration // periodic checkpoint cadence (0 = shutdown only)

	// Clustering: with follow set this process is a warm standby that
	// ships the leader's WAL into dataDir and serves only /v1/healthz,
	// /v1/follower/status and POST /v1/promote until promoted.
	follow     string        // leader base URL to follow
	followPoll time.Duration // WAL-shipping poll cadence
	drainGrace time.Duration // how long /v1/healthz advertises draining before shutdown

	// Binary streaming ingest: with ingestBin set a raw TCP listener
	// speaks the length-framed stream protocol (DESIGN.md §12) next to
	// the HTTP API. binReady, when non-nil, receives the bound address
	// once the listener is up (tests use ":0").
	ingestBin string
	binReady  chan<- net.Addr
}

func main() {
	var (
		opts     options
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.StringVar(&opts.listen, "listen", "", "HTTP listen address (e.g. :8647); empty = no server unless nothing to replay")
	flag.StringVar(&opts.admin, "admin", "", "separate admin listen address for /metrics, /debug/vars and pprof (e.g. 127.0.0.1:8648)")
	flag.BoolVar(&opts.pprof, "pprof", false, "enable net/http/pprof on the -admin listener")
	flag.IntVar(&opts.shards, "shards", 0, "ingest shards (0 = GOMAXPROCS)")
	flag.IntVar(&opts.batch, "batch", 0, "writer batch size (0 = default)")
	flag.StringVar(&opts.replay, "replay", "", "availability-study JSONL to stream through the engine")
	flag.StringVar(&opts.census, "census", "", "census JSONL to stream through the engine")
	flag.IntVar(&opts.writers, "writers", 4, "concurrent replay writers")
	flag.BoolVar(&opts.verify, "verify", false, "check online statistics against the offline analysis")
	flag.StringVar(&opts.push, "push", "", "push -replay records to a remote availd ingest URL (e.g. http://host:8647/v1/ingest) instead of the local engine")
	flag.StringVar(&opts.dataDir, "data-dir", "", "durability directory for the WAL and checkpoints; empty = in-memory only")
	flag.StringVar(&opts.fsync, "fsync", "batch", "WAL fsync policy: batch (acked = durable: one fsync per committed group — a lone frame, or a stream's backlog of frames — before any ack), interval, or off")
	flag.DurationVar(&opts.fsyncInterval, "fsync-interval", 100*time.Millisecond, "fsync cadence under -fsync interval")
	flag.DurationVar(&opts.checkpointEvery, "checkpoint-every", 5*time.Minute, "periodic checkpoint cadence (0 = checkpoint only on shutdown)")
	flag.StringVar(&opts.follow, "follow", "", "run as a warm standby shipping this leader's WAL (e.g. http://host:8647); requires -listen and -data-dir")
	flag.DurationVar(&opts.followPoll, "follow-poll", 250*time.Millisecond, "WAL-shipping poll cadence under -follow")
	flag.DurationVar(&opts.drainGrace, "drain-grace", 0, "keep answering /v1/healthz as draining this long before shutdown, so load balancers drain first")
	flag.StringVar(&opts.ingestBin, "ingest-bin", "", "binary streaming ingest listen address (e.g. :8649); empty = HTTP ingest only")
	flag.Parse()

	opts.logger = obs.NewLogger(os.Stderr, "availd", obs.ParseLevel(*logLevel), *logJSON)

	// SIGINT/SIGTERM end this context; both the server and the push
	// client drain gracefully from it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, opts); err != nil {
		fmt.Fprintf(os.Stderr, "availd: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options) error {
	if opts.push != "" {
		if opts.replay == "" {
			return fmt.Errorf("-push needs -replay (the records to send)")
		}
		return pushStudy(ctx, opts.push, opts.replay, opts.batch)
	}
	if opts.follow != "" {
		if opts.listen == "" || opts.dataDir == "" {
			return fmt.Errorf("-follow needs -listen and -data-dir")
		}
		return runFollower(ctx, opts, nil)
	}

	e, err := newEngineFromOpts(opts)
	if err != nil {
		return err
	}

	if opts.replay != "" {
		if err := replayStudy(e, opts.replay, opts.writers, opts.verify); err != nil {
			return err
		}
	}
	if opts.census != "" {
		if err := replayCensus(e, opts.census, opts.writers, opts.verify); err != nil {
			return err
		}
	}

	if opts.listen == "" {
		if opts.replay == "" && opts.census == "" {
			return fmt.Errorf("nothing to do: pass -listen and/or -replay/-census")
		}
		// Replay-only run: fold the ingested state into a checkpoint so
		// the next boot loads it instead of replaying the whole journal.
		if opts.dataDir != "" {
			e.Close()
			return finalCheckpoint(e, opts)
		}
		return nil
	}
	return serve(ctx, e, opts, nil, nil)
}

// newEngineFromOpts builds the engine: plain in-memory by default, or —
// with -data-dir — a durable one recovered from its checkpoint and WAL.
func newEngineFromOpts(opts options) (*ingest.Engine, error) {
	cfg := ingest.Config{Shards: opts.shards, BatchSize: opts.batch}
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
	if opts.logger != nil {
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
	}
	return e, nil
}

// finalCheckpoint captures the (already drained) engine's state on the
// way out. Failure is reported but not fatal: the WAL alone recovers
// the same state, just more slowly.
func finalCheckpoint(e *ingest.Engine, opts options) error {
	cs, err := e.Checkpoint()
	if err != nil {
		fmt.Fprintf(os.Stderr, "availd: final checkpoint: %v (journal remains authoritative)\n", err)
		if opts.logger != nil {
			opts.logger.Error("final checkpoint failed", "err", err)
		}
		return nil
	}
	if !cs.Skipped {
		fmt.Printf("availd: checkpoint seq %d written (%d swarms, %d bytes, %v)\n",
			cs.Seq, cs.Swarms, cs.Bytes, cs.Duration.Round(time.Millisecond))
	}
	if opts.logger != nil {
		opts.logger.Info("final checkpoint", "seq", cs.Seq, "swarms", cs.Swarms,
			"bytes", cs.Bytes, "skipped", cs.Skipped, "duration", cs.Duration)
	}
	return nil
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

// serve runs the hardened HTTP front end until ctx ends, then shuts
// down gracefully: stop accepting, finish in-flight requests, drain the
// ingest engine. Every record acknowledged to a client before the
// signal is applied before exit. If opts.admin is set, the
// observability surface (metrics, vars, opt-in pprof) is additionally
// served on its own listener. If ready/adminReady are non-nil they
// receive the bound addresses once the listeners are up (tests use
// ":0").
func serve(ctx context.Context, e *ingest.Engine, opts options, ready, adminReady chan<- net.Addr) error {
	reg := e.Registry()
	obs.RegisterProcessMetrics(reg)
	registerSummaryMetrics(reg, e)

	// The epoch gate is opened even without a data dir (memory-only) so
	// the cluster_epoch/fencing series exist on every configuration and
	// a stamped request fences an in-memory node the same way.
	gate, err := cluster.OpenEpochGate(opts.dataDir, reg, func(format string, args ...any) {
		if opts.logger != nil {
			opts.logger.Warn(fmt.Sprintf(format, args...))
		}
	})
	if err != nil {
		return err
	}
	s := &server{engine: e, dataDir: opts.dataDir, gate: gate}
	h := obs.InstrumentHandler(reg, "api", s.handler())
	h = obs.LogRequests(opts.logger, h)

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	srv := newHTTPServer(h)
	fmt.Printf("availd: serving on %s (%d shards)\n", ln.Addr(), e.Shards())
	if opts.logger != nil {
		opts.logger.Info("serving", "addr", ln.Addr().String(), "shards", e.Shards())
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	errc := make(chan error, 3)
	go func() { errc <- srv.Serve(ln) }()

	var adminSrv *http.Server
	if opts.admin != "" {
		adminLn, err := net.Listen("tcp", opts.admin)
		if err != nil {
			srv.Close()
			ln.Close()
			return err
		}
		adminSrv = newHTTPServer(obs.LogRequests(opts.logger, obs.AdminHandler(reg, opts.pprof)))
		fmt.Printf("availd: admin on %s (pprof %v)\n", adminLn.Addr(), opts.pprof)
		if opts.logger != nil {
			opts.logger.Info("admin listener up", "addr", adminLn.Addr().String(), "pprof", opts.pprof)
		}
		if adminReady != nil {
			adminReady <- adminLn.Addr()
		}
		go func() { errc <- adminSrv.Serve(adminLn) }()
	}

	// Binary streaming ingest listener: the same engine behind a raw TCP
	// protocol whose frames are journal frames (DESIGN.md §12).
	var (
		binLn net.Listener
		binSS *ingest.StreamServer
	)
	if opts.ingestBin != "" {
		binLn, err = net.Listen("tcp", opts.ingestBin)
		if err != nil {
			if adminSrv != nil {
				adminSrv.Close()
			}
			srv.Close()
			ln.Close()
			return err
		}
		binSS = ingest.NewStreamServer(e, func(format string, args ...any) {
			if opts.logger != nil {
				opts.logger.Warn(fmt.Sprintf(format, args...))
			}
		})
		fmt.Printf("availd: binary ingest on %s\n", binLn.Addr())
		if opts.logger != nil {
			opts.logger.Info("binary ingest listener up", "addr", binLn.Addr().String())
		}
		if opts.binReady != nil {
			opts.binReady <- binLn.Addr()
		}
		go func() { errc <- binSS.Serve(binLn) }()
	}

	// Periodic checkpoints bound recovery time: boot cost is one
	// checkpoint load plus at most checkpointEvery worth of WAL replay.
	var ckptWG sync.WaitGroup
	if opts.dataDir != "" && opts.checkpointEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			t := time.NewTicker(opts.checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					cs, err := e.Checkpoint()
					switch {
					case err != nil:
						fmt.Fprintf(os.Stderr, "availd: checkpoint: %v\n", err)
						if opts.logger != nil {
							opts.logger.Error("checkpoint failed", "err", err)
						}
					case !cs.Skipped && opts.logger != nil:
						opts.logger.Info("checkpoint", "seq", cs.Seq, "swarms", cs.Swarms,
							"bytes", cs.Bytes, "duration", cs.Duration)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		if adminSrv != nil {
			adminSrv.Close()
		}
		if binLn != nil {
			binLn.Close()
			binSS.Close()
		}
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("availd: signal received, draining")
	if opts.logger != nil {
		opts.logger.Info("signal received, draining")
	}
	// Flip readiness before closing anything: /v1/healthz answers 503
	// draining while the listener is still up, and the grace period
	// gives health-checking gateways time to observe the transition and
	// stop routing here before connections start failing.
	s.draining.Store(true)
	if opts.drainGrace > 0 {
		time.Sleep(opts.drainGrace)
	}
	if binLn != nil {
		// Stop the binary stream first: closing the listener and the
		// active connections cuts every stream at a frame boundary —
		// acknowledged frames are in the engine, clients resend the rest
		// on reconnect (keyed frames make that exactly-once).
		binLn.Close()
		binSS.Close()
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
	ckptWG.Wait() // no checkpoint racing the drain
	e.Close()
	m := e.Metrics()
	fmt.Printf("availd: drained, %d records applied\n", m.Applied)
	if opts.logger != nil {
		opts.logger.Info("drained", "applied", m.Applied)
	}
	if opts.dataDir != "" {
		// The drained final state — every record acknowledged before the
		// signal — is folded into a shutdown checkpoint, so the next
		// boot loads it without replaying the journal.
		return finalCheckpoint(e, opts)
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

// pushStudy is replay-over-network: it streams an archived availability
// study's monitor records to a remote availd's /v1/ingest through the
// retrying HTTP client, riding out transient outages with backoff. The
// trace file is decoded in parallel so the sender, not JSON parsing, is
// the bottleneck.
func pushStudy(ctx context.Context, url, path string, batch int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		URL: url,
		Logf: func(format string, args ...any) {
			fmt.Printf("availd: "+format+"\n", args...)
		},
	})
	sc := trace.NewParallelTraceScanner(f, 0)
	defer sc.Close()
	start := time.Now()
	st, err := c.PushTraces(ctx, sc, batch)
	if err != nil {
		return err
	}
	fmt.Printf("pushed %d records from %d swarms to %s in %v (%d retries)\n",
		st.Records, st.Swarms, url, time.Since(start).Round(time.Millisecond), c.Retries())
	return nil
}

// offlineRef accumulates the offline reference statistics during the
// replay scan, so verification needs no second pass over the file.
type offlineRef struct {
	avail      map[int][2]float64
	firstMonth *stats.QuantileSketch
	full       *stats.QuantileSketch
	fm, fl     []float64
}

func replayStudy(e *ingest.Engine, path string, writers int, verify bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var ref *offlineRef
	// Parallel decode: order-preserving, so the verify path's
	// record-by-record offline comparison still sees the file order.
	sc := trace.NewParallelTraceScanner(f, 0)
	defer sc.Close()
	start := time.Now()
	var n int
	if !verify {
		n, err = ingest.ReplayTraces(e, sc, writers)
	} else {
		ref = &offlineRef{
			avail:      make(map[int][2]float64),
			firstMonth: stats.NewAvailabilitySketch(),
			full:       stats.NewAvailabilitySketch(),
		}
		// Feed the engine through one writer per scanned record while
		// computing the offline answers from the same record.
		w := e.NewWriter()
		for sc.Scan() {
			t := sc.Record()
			for _, op := range ingest.TraceOps(t) {
				w.Put(op)
			}
			fm, full := measure.Availability(t)
			ref.avail[t.Meta.ID] = [2]float64{fm, full}
			ref.firstMonth.Add(fm)
			ref.full.Add(full)
			ref.fm = append(ref.fm, fm)
			ref.fl = append(ref.fl, full)
			n++
		}
		w.Flush()
		e.Flush()
		err = sc.Err()
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	m := e.Metrics()
	fmt.Printf("replayed %d swarms (%d records) in %v — %.0f records/s, batch p50 latency %s\n",
		n, m.Applied, elapsed.Round(time.Millisecond),
		float64(m.Applied)/elapsed.Seconds(), fmtSeconds(m.LatencyP50))

	sum := e.Summary()
	h := sum.Headlines()
	fmt.Printf("online headlines: %.1f%% fully seeded through month 1, %.1f%% available ≤20%% of the trace\n",
		100*h.FullyAvailableFirstMonth, 100*h.MostlyUnavailableOverall)
	fmt.Println("online availability quantiles (first month / whole trace):")
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		fmt.Printf("  p%-3.0f  %.3f / %.3f\n", q*100, sum.FirstMonth.Quantile(q), sum.Full.Quantile(q))
	}

	if verify {
		return verifyStudy(e, sum, ref)
	}
	return nil
}

func verifyStudy(e *ingest.Engine, sum *ingest.Summary, ref *offlineRef) error {
	var maxDelta float64
	for id, want := range ref.avail {
		st, ok := e.Swarm(id)
		if !ok {
			return fmt.Errorf("verify: swarm %d missing from online state", id)
		}
		d := math.Max(math.Abs(st.FirstMonth-want[0]), math.Abs(st.Full-want[1]))
		if d > maxDelta {
			maxDelta = d
		}
	}
	const tol = 1e-9
	fmt.Printf("verify: %d swarms, max |online − offline| availability = %.3g (tolerance %g)\n",
		len(ref.avail), maxDelta, tol)
	if maxDelta > tol {
		return fmt.Errorf("verify: per-swarm availability diverged by %g > %g", maxDelta, tol)
	}

	// Online sketches must equal the offline single-pass sketches, and
	// both must sit within one bin of the exact order statistics.
	sort.Float64s(ref.fm)
	sort.Float64s(ref.fl)
	res := sum.FirstMonth.Resolution()
	var maxQ float64
	for _, q := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		if sum.FirstMonth.Quantile(q) != ref.firstMonth.Quantile(q) ||
			sum.Full.Quantile(q) != ref.full.Quantile(q) {
			return fmt.Errorf("verify: online sketch quantile q=%v diverged from offline sketch", q)
		}
		rank := int(math.Ceil(q * float64(len(ref.fm))))
		dFM := math.Abs(sum.FirstMonth.Quantile(q) - ref.fm[rank-1])
		dFL := math.Abs(sum.Full.Quantile(q) - ref.fl[rank-1])
		maxQ = math.Max(maxQ, math.Max(dFM, dFL))
	}
	fmt.Printf("verify: CDF quantiles identical to offline sketch; max |sketch − exact order stat| = %.3g (tolerance %.3g)\n",
		maxQ, res)
	if maxQ > res+1e-12 {
		return fmt.Errorf("verify: sketch quantile error %g exceeds resolution %g", maxQ, res)
	}
	fmt.Println("verify: OK")
	return nil
}

func replayCensus(e *ingest.Engine, path string, writers int, verify bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()

	var offline map[trace.Category]measure.BundlingExtent
	var n int
	if !verify {
		sc := trace.NewParallelSnapshotScanner(f, 0)
		defer sc.Close()
		n, err = ingest.ReplaySnapshots(e, sc, writers)
		if err != nil {
			return err
		}
	} else {
		// Stream both pipelines from one scan; the offline extent uses
		// the identical classifier on each record.
		ext := map[trace.Category]measure.BundlingExtent{}
		w := e.NewWriter()
		sc := trace.NewParallelSnapshotScanner(f, 0)
		defer sc.Close()
		for sc.Scan() {
			s := sc.Record()
			w.ObserveCensus(s)
			acc := ext[s.Meta.Category]
			acc.Category = s.Meta.Category
			acc.Swarms++
			if measure.IsBundle(s.Meta) {
				acc.Bundles++
			}
			if s.Meta.Category == trace.Books && measure.IsCollection(s.Meta) {
				acc.Collections++
			}
			ext[s.Meta.Category] = acc
			n++
		}
		w.Flush()
		e.Flush()
		if err := sc.Err(); err != nil {
			return err
		}
		offline = ext
	}
	fmt.Printf("replayed %d census snapshots in %v\n", n, time.Since(start).Round(time.Millisecond))

	sum := e.Summary()
	for _, cat := range []trace.Category{trace.Music, trace.TV, trace.Books} {
		cc := sum.Categories[cat]
		fmt.Printf("  %-6s %8d swarms, %6d bundles, %d collections, %.1f%% seedless\n",
			cat, cc.Swarms, cc.Bundles, cc.Collections,
			100*cc.Compare(cat).SeedlessAll)
		if offline != nil {
			if got := cc.Extent(cat); got != offline[cat] {
				return fmt.Errorf("verify: %v bundling counters diverged: online %+v offline %+v",
					cat, got, offline[cat])
			}
		}
	}
	if offline != nil {
		fmt.Println("verify: bundling counters identical to offline analysis")
	}
	return nil
}

func fmtSeconds(s float64) string {
	if s <= 0 {
		return "n/a"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// server wires the engine into the HTTP API.
type server struct {
	engine *ingest.Engine
	// dataDir gates the WAL-shipping endpoints: only a durable node has
	// a journal a follower can replicate.
	dataDir string
	// gate, when non-nil, wraps the API in cluster epoch fencing: every
	// response carries this node's slot epoch, and requests from a newer
	// era demote the node (see cluster.EpochGate).
	gate *cluster.EpochGate
	// draining flips /v1/healthz to 503 ahead of shutdown so the
	// gateway's health checks stop routing here before the listener
	// closes.
	draining atomic.Bool
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/swarm/{id}", s.handleSwarm)
	mux.HandleFunc("GET /v1/swarm/{id}/timeline", s.handleTimeline)
	// The merged read endpoints are the handler set availgw serves too.
	ingest.RegisterReadHandlers(mux, s.engine)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	if s.dataDir != "" && s.engine.WAL() != nil {
		// WAL shipping: a follower replicates this node's journal and
		// checkpoints from these routes.
		(&cluster.WALServer{Log: s.engine.WAL(), Dir: s.dataDir}).Register(mux)
	}
	// The observability surface rides on the API listener too, so a
	// bare deployment (no -admin) still scrapes. Everything is served
	// straight from the engine's registry: the ingest pipeline writes
	// its own series there, and registerSummaryMetrics adds the
	// analytical gauges — nothing is copied field by field here.
	mux.Handle("GET /metrics", obs.MetricsHandler(s.engine.Registry()))
	mux.Handle("GET /debug/vars", obs.VarsHandler(s.engine.Registry()))
	if s.gate != nil {
		return s.gate.Middleware(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) { ingest.WriteJSON(w, v) }

// handleHealthz is the readiness probe: 200 "serving" exactly when the
// node can take traffic — recovery finished (the listener only comes up
// after OpenDurable returns) and not yet draining for shutdown. The
// cluster gateway's failure detector keys off this.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"state":"draining"}`)
		return
	}
	if s.gate != nil && s.gate.Fenced() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"state":"fenced"}`)
		return
	}
	writeJSON(w, map[string]string{"state": "serving"})
}

func (s *server) handleSwarm(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad swarm id", http.StatusBadRequest)
		return
	}
	lookup := s.engine.SwarmSnapshot
	if ingest.WantConsistent(r) {
		lookup = s.engine.Swarm
	}
	st, ok := lookup(id)
	if !ok {
		http.Error(w, "unknown swarm", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleTimeline serves one swarm's windowed history: per-bin
// availability and busy-period starts at fine resolution plus the
// downsampled tail.
func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad swarm id", http.StatusBadRequest)
		return
	}
	win, ok := s.engine.Timeline(id)
	if !ok {
		http.Error(w, "unknown swarm", http.StatusNotFound)
		return
	}
	writeJSON(w, ingest.NewTimelineResponse(id, win))
}

// maxIngestBody bounds one /v1/ingest request (32 MiB ≈ 300k records);
// push clients batch far below this.
const maxIngestBody = 32 << 20

// parallelIngestBody is the body size from which /v1/ingest decodes
// with the worker-pool scanner. Below it the pool's goroutine setup
// costs more than it buys; above it JSON decode is the endpoint's CPU
// bill and fans out across cores.
const parallelIngestBody = 1 << 20

// handleIngest accepts JSONL ingest.Record lines. The whole body is
// parsed before anything touches the engine, so a request that fails —
// oversized (413), malformed (400), or racing shutdown (503) — leaves
// the engine's state exactly as it was: no partial batch is ever
// applied for a request the client was told failed. The 200
// acknowledgement means every record is in the engine's queues (and,
// under -data-dir with the default fsync policy, on stable storage) —
// state a graceful shutdown drains before exiting.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Idempotency key headers select the exactly-once path: a retried
	// batch whose first attempt was journaled (its ack lost in flight) is
	// acknowledged again without re-applying.
	source := r.Header.Get(ingest.HeaderSource)
	var seq uint64
	if source != "" {
		var err error
		seq, err = strconv.ParseUint(r.Header.Get(ingest.HeaderSeq), 10, 64)
		if err != nil || seq == 0 {
			http.Error(w, "bad "+ingest.HeaderSeq+" header", http.StatusBadRequest)
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBody)
	var src trace.Source[ingest.Record]
	if r.ContentLength >= parallelIngestBody {
		sc := trace.NewParallelScanner[ingest.Record](r.Body, 0)
		defer sc.Close()
		src = sc
	} else {
		src = trace.NewScanner[ingest.Record](r.Body)
	}
	var ops []ingest.Op
	for src.Scan() {
		ops = append(ops, ingest.EventOp(src.Record()))
	}
	if err := src.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad record %d: %v", len(ops), err), http.StatusBadRequest)
		return
	}
	if source != "" {
		// applied=false means the batch was a duplicate: still a full
		// acknowledgement (the records are journaled and applied — once).
		if _, err := s.engine.SubmitKeyed(source, seq, ops); err != nil {
			ingestUnavailable(w, err)
			return
		}
	} else if err := s.engine.Submit(ops); err != nil {
		ingestUnavailable(w, err)
		return
	}
	writeJSON(w, map[string]int{"accepted": len(ops)})
}

// ingestUnavailable reports a write the draining engine refused; the
// retrying client treats 503 as temporary and replays the batch
// elsewhere/later, preserving at-least-once delivery.
func ingestUnavailable(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, ingest.ErrClosed) {
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}
