// Command availd is the online availability-analytics daemon: the
// serving front end of internal/ingest. It consumes monitor records —
// live over HTTP or the binary stream, or replayed from archived JSONL
// campaigns — and answers the §2 availability and bundling questions
// continuously instead of after the campaign ends.
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
//	GET  /v1/healthz             readiness: serving, or 503 draining / following / fenced
//
// With -ingest-bin a raw TCP listener takes the length-framed binary
// stream (DESIGN.md §12) next to the HTTP API — the path monitor fleets
// and availgw use:
//
//	availd -listen :8647 -ingest-bin :8649 -data-dir /var/lib/availd
//
// With -admin the same observability surface (plus opt-in
// net/http/pprof via -pprof) is additionally served on a separate
// listener, so operators can firewall the API port without losing
// scrapes:
//
//	availd -listen :8647 -admin 127.0.0.1:8648 -pprof
//
// With -follow the process is a warm standby: it ships the named
// leader's WAL and checkpoints into -data-dir and serves only
//
//	GET  /v1/healthz          503 {"state":"following"}
//	GET  /v1/follower/status  shipping watermark and leader
//	POST /v1/promote          stop shipping, recover, become the leader
//	GET  /metrics, /debug/vars
//
// (503 for everything else) until it is promoted, normally by the
// cluster gateway's failure detector. A standby is the same node as a
// leader — every listener is bound at boot and promotion runs the
// leader's own boot sequence over the shipped state — so every flag
// below means after a failover what it means on a leader (DESIGN.md §10):
//
//	availd -follow http://leader:8647 -listen :8657 -ingest-bin :8659 \
//	       -admin 127.0.0.1:8658 -data-dir /var/lib/availd-standby
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
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swarmavail/internal/obs"
)

// options carries the CLI configuration through run and serve; tests
// construct it directly (zero value = API listener only, no admin, no
// log output).
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
	logger  *slog.Logger // structured request + lifecycle log; run and serve default it to a discarding one

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

// withLogger defaults the logger, so no lifecycle line needs a guard.
func (o options) withLogger() options {
	if o.logger == nil {
		o.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
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
	opts = opts.withLogger()
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
		// A standby: the same serve, which gets its engine at promotion.
		return serve(ctx, nil, opts, nil, nil)
	}

	e, err := newEngineFromOpts(opts, nil)
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
			finalCheckpoint(e, opts)
		}
		return nil
	}
	return serve(ctx, e, opts, nil, nil)
}
