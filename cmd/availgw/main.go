// Command availgw is the cluster gateway: one availd-shaped API over N
// availd nodes. It consistent-hashes swarms across the nodes (whole
// swarms, never split — the same partitioning rule the engine's shards
// use in-process), routes POST /v1/ingest and the -ingest-bin stream
// through one splitter and delivers each request's per-node shares
// concurrently through retrying clients (all-or-nothing ack; there is
// no per-node queue to size), scatter-gathers availd's merged read
// endpoints (/v1/summary, /v1/availability/cdf,
// /v1/availability/window, /v1/bundling/summary, /v1/state,
// /v1/window/state — one shared handler set) by merging every node's
// state, and — when followers are configured — promotes a node's warm
// standby after consecutive failed health checks.
//
//	availgw -listen :8650 \
//	  -nodes http://n1:8647,http://n2:8647,http://n3:8647 \
//	  -followers http://f1:8657,http://f2:8657,http://f3:8657
//
// Node order is part of the cluster identity: every gateway (and every
// restart) must list the same nodes in the same order, or swarms route
// to different homes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/obs"
)

type options struct {
	listen         string
	ingestBin      string
	nodes          string
	followers      string
	nodeBins       string
	followerBins   string
	vnodes         int
	sendPasses     int
	healthEvery    time.Duration
	failAfter      int
	probeTimeout   time.Duration
	promoteTimeout time.Duration
	drainGrace     time.Duration
}

func main() {
	var (
		opts     options
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.StringVar(&opts.listen, "listen", ":8650", "HTTP listen address")
	flag.StringVar(&opts.nodes, "nodes", "", "comma-separated leader base URLs, in slot order (required)")
	flag.StringVar(&opts.followers, "followers", "", "comma-separated follower base URLs, parallel to -nodes (empty slots allowed)")
	flag.StringVar(&opts.ingestBin, "ingest-bin", "", "binary streaming ingest listen address (e.g. :8651); requires -node-bins")
	flag.StringVar(&opts.nodeBins, "node-bins", "", "comma-separated node binary ingest addresses (availd -ingest-bin), parallel to -nodes")
	flag.StringVar(&opts.followerBins, "follower-bins", "", "comma-separated follower binary ingest addresses, parallel to -nodes (empty slots allowed)")
	flag.IntVar(&opts.vnodes, "vnodes", 0, "virtual nodes per slot on the hash ring (0 = default)")
	flag.IntVar(&opts.sendPasses, "send-passes", 0, "client retry cycles per push before reporting failure (0 = default)")
	flag.DurationVar(&opts.healthEvery, "health-every", time.Second, "leader health-check cadence")
	flag.IntVar(&opts.failAfter, "fail-after", 3, "consecutive failed health checks before promoting the follower")
	flag.DurationVar(&opts.probeTimeout, "probe-timeout", 0, "timeout per health probe (0 = health-every)")
	flag.DurationVar(&opts.promoteTimeout, "promote-timeout", 0, "timeout per follower promotion attempt (0 = default)")
	flag.DurationVar(&opts.drainGrace, "drain-grace", 0, "keep answering /v1/healthz as draining this long before shutdown, so load balancers drain first")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "availgw", obs.ParseLevel(*logLevel), *logJSON)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, opts, logger.Info, nil); err != nil {
		fmt.Fprintf(os.Stderr, "availgw: %v\n", err)
		os.Exit(1)
	}
}

// parseNodes zips -nodes, -followers, -node-bins and -follower-bins
// into the cluster membership.
func parseNodes(nodes, followers, nodeBins, followerBins string) ([]cluster.NodeConfig, error) {
	if strings.TrimSpace(nodes) == "" {
		return nil, fmt.Errorf("-nodes is required")
	}
	urls := strings.Split(nodes, ",")
	parallel := func(flagName, v string) ([]string, error) {
		if strings.TrimSpace(v) == "" {
			return nil, nil
		}
		parts := strings.Split(v, ",")
		if len(parts) != len(urls) {
			return nil, fmt.Errorf("%s has %d entries for %d nodes", flagName, len(parts), len(urls))
		}
		return parts, nil
	}
	fws, err := parallel("-followers", followers)
	if err != nil {
		return nil, err
	}
	bins, err := parallel("-node-bins", nodeBins)
	if err != nil {
		return nil, err
	}
	fbins, err := parallel("-follower-bins", followerBins)
	if err != nil {
		return nil, err
	}
	out := make([]cluster.NodeConfig, 0, len(urls))
	for i, u := range urls {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("node %d has an empty URL", i)
		}
		nc := cluster.NodeConfig{Name: fmt.Sprintf("node%d", i), URL: u}
		if fws != nil {
			nc.Follower = strings.TrimSuffix(strings.TrimSpace(fws[i]), "/")
		}
		if bins != nil {
			nc.BinAddr = strings.TrimSpace(bins[i])
		}
		if fbins != nil {
			nc.FollowerBin = strings.TrimSpace(fbins[i])
		}
		out = append(out, nc)
	}
	return out, nil
}

// run builds the gateway and serves until ctx ends; tests drive it
// directly with a ready channel for the bound address.
func run(ctx context.Context, opts options, logf func(string, ...any), ready chan<- net.Addr) error {
	nodes, err := parseNodes(opts.nodes, opts.followers, opts.nodeBins, opts.followerBins)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes:          nodes,
		Vnodes:         opts.vnodes,
		SendPasses:     opts.sendPasses,
		HealthEvery:    opts.healthEvery,
		FailAfter:      opts.failAfter,
		ProbeTimeout:   opts.probeTimeout,
		PromoteTimeout: opts.promoteTimeout,
		Metrics:        reg,
		Logf: func(format string, args ...any) {
			if logf != nil {
				logf(fmt.Sprintf(format, args...))
			}
		},
	})
	if err != nil {
		return err
	}
	defer g.Close()

	h := obs.InstrumentHandler(reg, "gateway", g.Handler())
	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	fmt.Printf("availgw: serving on %s over %d nodes\n", ln.Addr(), len(nodes))
	if ready != nil {
		ready <- ln.Addr()
	}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()

	// Binary stream forwarding: a raw TCP front for the same fan-out,
	// forwarding stream frames per slot to each node's -ingest-bin.
	var binLn net.Listener
	if opts.ingestBin != "" {
		binLn, err = net.Listen("tcp", opts.ingestBin)
		if err != nil {
			srv.Close()
			ln.Close()
			return err
		}
		fmt.Printf("availgw: binary ingest on %s\n", binLn.Addr())
		go func() { errc <- g.ServeStream(binLn) }()
	}

	select {
	case err := <-errc:
		if binLn != nil {
			binLn.Close()
		}
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("availgw: signal received, draining")
	// Advertise draining on /v1/healthz while the listener is still up,
	// then wait out the grace period so load balancers stop routing to
	// us before Shutdown closes the listener — mirroring availd.
	g.SetDraining(true)
	if opts.drainGrace > 0 {
		time.Sleep(opts.drainGrace)
	}
	if binLn != nil {
		// Cut the streams at frame boundaries before the gateway's
		// upstream clients go away; keyed resends make the cut loss-free.
		binLn.Close()
		g.CloseStreams()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "availgw: shutdown: %v\n", err)
	}
	return nil
}
