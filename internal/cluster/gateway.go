package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
)

// ErrGatewayClosed is returned for pushes caught mid-flight by a
// gateway shutdown.
var ErrGatewayClosed = errors.New("cluster: gateway closed")

// NodeConfig names one cluster slot: the leader serving it and,
// optionally, the follower the gateway may promote into it.
type NodeConfig struct {
	// Name labels the node in logs and metrics (default: the URL).
	Name string
	// URL is the leader availd's base URL.
	URL string
	// Follower is the standby's base URL ("" = no failover for this
	// slot). The follower must be running availd -follow against URL.
	Follower string
	// BinAddr is the leader's binary streaming ingest address (availd
	// -ingest-bin). Required on every node for Gateway.ServeStream.
	BinAddr string
	// FollowerBin is the follower's binary ingest address; after a
	// promotion stream forwarding redials here ("" = binary forwarding
	// for this slot keeps dialing BinAddr).
	FollowerBin string
}

func (n NodeConfig) name() string {
	if n.Name != "" {
		return n.Name
	}
	return n.URL
}

// GatewayConfig parameterises a Gateway.
type GatewayConfig struct {
	// Nodes is the cluster membership, in slot order. The ring maps
	// swarms to slot indices, so order is part of the cluster identity:
	// every gateway over the same ordered membership routes identically.
	Nodes []NodeConfig
	// Vnodes is the virtual-node count per slot (default DefaultVnodes).
	Vnodes int
	// SendPasses is how many full client retry cycles a push gets before
	// the gateway reports failure (default 8). Each pass re-resolves the
	// node's current client, so pushes in flight during a failover land
	// on the promoted follower.
	SendPasses int
	// HealthEvery is the leader health-check cadence (default 1s).
	HealthEvery time.Duration
	// FailAfter is the consecutive health-check failures that trigger
	// failover (default 3).
	FailAfter int
	// ProbeTimeout bounds each individual health probe (default
	// HealthEvery) so a hung node reads as down, not as a stalled loop.
	ProbeTimeout time.Duration
	// PromoteTimeout bounds one promotion attempt (default 30s).
	PromoteTimeout time.Duration
	// HealthClient, when set, carries the health probes and promotion
	// calls (tests inject fault transports). Timeouts come from
	// ProbeTimeout/PromoteTimeout contexts, not from the client.
	HealthClient *http.Client
	// SourceID is the idempotency source stem for pushes the gateway
	// originates keys for (default: a fresh random id). Unkeyed client
	// batches are re-keyed per slot as "<SourceID>#<slot>"; batches that
	// arrive already keyed keep their upstream key.
	SourceID string
	// ClientConfig is the template for per-node ingest clients; URL and
	// BaseURL are overwritten per node. Tests inject fault transports
	// and fast backoff here.
	ClientConfig ingest.HTTPClientConfig
	// Promote, when set, replaces the default promotion call (POST
	// {follower}/v1/promote stamped with the successor epoch) and
	// returns the promoted node's base URL. Implementations should make
	// the promoted node adopt epoch.
	Promote func(ctx context.Context, n NodeConfig, epoch uint64) (string, error)
	// Metrics, when set, registers gateway series.
	Metrics *obs.Registry
	// Logf, when set, receives lifecycle and failure lines.
	Logf func(format string, args ...any)
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.SendPasses <= 0 {
		c.SendPasses = 8
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.HealthEvery
	}
	if c.PromoteTimeout <= 0 {
		c.PromoteTimeout = 30 * time.Second
	}
	if c.HealthClient == nil {
		c.HealthClient = &http.Client{}
	}
	if c.SourceID == "" {
		c.SourceID = ingest.NewSourceID()
	}
	return c
}

// slotRoute is where a slot's traffic goes and under which epoch: one
// immutable value, replaced whole (reroute), so a reader never pairs
// the promoted follower's URL with the old leader's client and the
// believed epoch never moves backwards.
type slotRoute struct {
	url     string // current base URL (leader, then follower)
	binAddr string // current binary ingest address
	// epoch is the slot epoch the gateway believes (0 = not yet learned;
	// pre-epoch nodes never teach one). Promotion bumps it; probe
	// responses and 409s raise it.
	epoch  uint64
	client *ingest.HTTPClient // speaks to url, stamping epoch
	// retired is the pre-promotion leader's URL until the gateway has
	// fenced it (stamped it with the successor epoch); "" once done.
	retired string
}

// gwNode is one cluster slot's runtime state.
type gwNode struct {
	cfg NodeConfig

	route    atomic.Pointer[slotRoute]
	fails    atomic.Int32 // consecutive failed health checks
	promoted atomic.Bool  // failover done; no second standby

	// source and seq key the writes the gateway originates for this slot:
	// "<SourceID>#<slot>" and a counter.
	source string
	seq    atomic.Uint64

	unhealthy *obs.Gauge
}

// share is one slot's part of a routed write — records from the HTTP
// front, ops from the stream front — and the idempotency key it travels
// under: stamped on every delivery attempt, so retries across passes
// (and across a failover) deduplicate server-side.
type share[T any] struct {
	slot   int
	source string
	seq    uint64
	items  []T
}

// Gateway is the cluster front door. It speaks the same API as a
// single availd — POST /v1/ingest and the merged read endpoints of
// ingest.RegisterReadHandlers — over N nodes:
//
//   - Writes are partitioned by the consistent-hash ring (whole swarms,
//     never split: route) and each request's shares are delivered
//     concurrently through per-node retrying clients. The request is
//     acknowledged only when every node has journaled its share; a
//     partial failure is reported as 503 and acknowledges nothing, so
//     the monitor's retry preserves at-least-once delivery end to end.
//   - Reads scatter-gather /v1/state (or /v1/window/state) from every
//     node and merge with Summary.Merge (WindowState.Merge). The merge
//     algebra is exact (integer counters, sums and sketch bin counts),
//     the merge order is fixed (slot order), and
//     the rendering is the same code a single availd runs — so the
//     merged responses are byte-identical to a lone node that saw the
//     whole stream.
//   - A health loop probes each leader's /v1/healthz; FailAfter
//     consecutive misses promote the slot's follower and swap the
//     slot's route, redirecting in-flight and future pushes.
type Gateway struct {
	cfg   GatewayConfig
	ring  *Ring
	nodes []*gwNode

	// ctx ends at Close: it stops the health loop and fails the pushes
	// in flight, whose contexts hang off it.
	ctx      context.Context
	cancel   context.CancelFunc
	health   chan struct{} // closed when the health loop has exited
	draining atomic.Bool

	records   *obs.Counter
	batches   *obs.Counter
	pushFails *obs.Counter
	failovers *obs.Counter

	// streams accepts the stream front's connections (ServeStream) and
	// cuts them at Close.
	streams      ingest.StreamAcceptor
	streamConns  *obs.Counter
	streamFrames *obs.Counter

	// readCacheHits counts node answers served from the conditional-GET
	// caches (304); collapsedReads counts scatter-gathers that rode an
	// identical in-flight one instead of fanning out again.
	readCacheHits  *obs.Counter
	collapsedReads *obs.Counter

	// The two scatter-gathered reads: every node's /v1/state merged with
	// Summary.Merge, and every node's /v1/window/state merged with
	// WindowState.Merge.
	state  scatter[ingest.Summary]
	window scatter[ingest.WindowState]
}

// NewGateway builds and starts a gateway: the health loop is running
// when it returns. Close stops it.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: gateway needs at least one node")
	}
	ring, err := NewRing(len(cfg.Nodes), cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:    cfg,
		ring:   ring,
		health: make(chan struct{}),
		state: scatter[ingest.Summary]{
			fetch:     (*ingest.HTTPClient).FetchStateTagged,
			newMerged: func(*ingest.Summary) *ingest.Summary { return ingest.NewSummary() },
			mergeInto: func(dst, part *ingest.Summary) error { dst.Merge(part); return nil },
			cache:     make([]atomic.Pointer[nodeAnswer[ingest.Summary]], len(cfg.Nodes)),
		},
		window: scatter[ingest.WindowState]{
			fetch: (*ingest.HTTPClient).FetchWindowState,
			// A fresh state carrying the cluster's shared geometry.
			newMerged: func(first *ingest.WindowState) *ingest.WindowState {
				return &ingest.WindowState{
					BinDays:    first.BinDays,
					FoldFactor: first.FoldFactor,
					FineBins:   first.FineBins,
					CoarseBins: first.CoarseBins,
				}
			},
			mergeInto: (*ingest.WindowState).Merge,
			cache:     make([]atomic.Pointer[nodeAnswer[ingest.WindowState]], len(cfg.Nodes)),
		},
	}
	if reg := cfg.Metrics; reg != nil {
		g.records = reg.Counter("gateway_ingest_records_total")
		g.batches = reg.Counter("gateway_ingest_batches_total")
		g.pushFails = reg.Counter("gateway_push_failures_total")
		g.failovers = reg.Counter("gateway_failovers_total")
		g.streamConns = reg.Counter("gateway_stream_conns_total")
		g.streamFrames = reg.Counter("gateway_stream_frames_total")
		g.readCacheHits = reg.Counter("read_cache_hits_total")
		g.collapsedReads = reg.Counter("gateway_collapsed_reads_total")
	}
	for i, nc := range cfg.Nodes {
		if nc.URL == "" {
			return nil, fmt.Errorf("cluster: node %d has no URL", i)
		}
		n := &gwNode{cfg: nc, source: cfg.SourceID + "#" + strconv.Itoa(i)}
		n.route.Store(&slotRoute{url: nc.URL, binAddr: nc.BinAddr, client: g.newClient(nc.URL, 0)})
		if reg := cfg.Metrics; reg != nil {
			n.unhealthy = reg.Gauge("gateway_node_unhealthy", obs.L("node", nc.name()))
			reg.GaugeFunc("gateway_slot_epoch",
				func() float64 { return float64(n.route.Load().epoch) },
				obs.L("node", nc.name()))
		}
		g.nodes = append(g.nodes, n)
	}
	g.streams.Handle = func(conn net.Conn) {
		if err := g.serveStreamConn(conn); err != nil {
			g.logf("gateway stream %s: %v", conn.RemoteAddr(), err)
		}
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	go g.healthLoop()
	return g, nil
}

// newClient builds a node client from the config template, stamping
// epoch (0 = unstamped) on everything it sends.
func (g *Gateway) newClient(baseURL string, epoch uint64) *ingest.HTTPClient {
	cc := g.cfg.ClientConfig
	cc.URL, cc.BaseURL = "", baseURL
	cc.Epoch = epoch
	return ingest.NewHTTPClient(cc)
}

// reroute replaces slot n's route with edit's revision of it, by
// compare-and-swap: edit runs again over the winner's value when another
// writer got in between, and returns false to leave the route alone
// (reroute then reports false). It is the only writer of gwNode.route,
// and it pairs every (url, epoch) with a client built for exactly that
// pair.
func (g *Gateway) reroute(n *gwNode, edit func(r *slotRoute) bool) bool {
	for {
		cur := n.route.Load()
		next := *cur
		if !edit(&next) {
			return false
		}
		if next.url != cur.url || next.epoch != cur.epoch {
			next.client = g.newClient(next.url, next.epoch)
		}
		if n.route.CompareAndSwap(cur, &next) {
			return true
		}
	}
}

// adoptEpoch raises slot n's epoch to epoch and swaps in a client
// stamping it. Lower or equal epochs are no-ops.
func (g *Gateway) adoptEpoch(n *gwNode, epoch uint64) {
	raised := g.reroute(n, func(r *slotRoute) bool {
		if epoch <= r.epoch {
			return false
		}
		r.epoch = epoch
		return true
	})
	if raised {
		g.logf("gateway: %s now at epoch %d", n.cfg.name(), epoch)
	}
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// Ring exposes the routing table (tests assert placement with it).
func (g *Gateway) Ring() *Ring { return g.ring }

// NodeURL returns slot i's current base URL (the follower's after a
// promotion).
func (g *Gateway) NodeURL(i int) string { return g.nodes[i].route.Load().url }

// SetDraining flips the gateway's /v1/healthz readiness answer: true
// makes it 503 {"state":"draining"} so load balancers stop routing new
// work here while in-flight requests finish (mirroring availd's
// -drain-grace sequence).
func (g *Gateway) SetDraining(v bool) { g.draining.Store(v) }

// Close stops the health loop, fails the pushes in flight with
// ErrGatewayClosed and cuts the stream front (CloseStreams), so nothing
// is forwarded through a closed gateway. Idempotent.
func (g *Gateway) Close() {
	g.cancel()
	<-g.health
	g.CloseStreams()
}

// CloseStreams cuts the stream front's connections and refuses new
// ones, leaving the HTTP front to finish what it has in flight — the
// step a draining availgw takes before its HTTP shutdown.
func (g *Gateway) CloseStreams() { g.streams.Close() }

// deliver pushes one share to its slot, re-resolving the slot's route
// between passes so a failover mid-push redirects the retry to the
// promoted follower rather than hammering a corpse.
func (g *Gateway) deliver(ctx context.Context, sh share[ingest.Record]) error {
	n := g.nodes[sh.slot]
	var lastErr error
	for pass := 1; pass <= g.cfg.SendPasses; pass++ {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		rt := n.route.Load()
		err := rt.client.PushKeyed(ctx, sh.source, sh.seq, sh.items)
		if err == nil {
			return nil
		}
		// An epoch conflict from a node ahead of us is self-inflicted
		// staleness, not a node failure: adopt the newer epoch and retry
		// immediately with the re-stamped client.
		var conflict *ingest.EpochConflictError
		if errors.As(err, &conflict) && conflict.NodeEpoch > rt.epoch {
			g.adoptEpoch(n, conflict.NodeEpoch)
			lastErr = err
			continue
		}
		lastErr = err
		g.pushFails.Inc()
		g.logf("gateway: push to %s failed (pass %d/%d): %v", n.cfg.name(), pass, g.cfg.SendPasses, err)
		if pass == g.cfg.SendPasses {
			break
		}
		// Give the health loop a beat to notice and promote before the
		// next pass re-resolves the route.
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(g.cfg.HealthEvery):
		}
	}
	return lastErr
}

// healthLoop probes each slot's current leader and promotes its
// follower after FailAfter consecutive misses.
func (g *Gateway) healthLoop() {
	defer close(g.health)
	t := time.NewTicker(g.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
		}
		for _, n := range g.nodes {
			if n.promoted.Load() {
				// One standby per slot, so no further failover — but the
				// retired leader may still need fencing once reachable.
				g.fenceRetired(n)
				continue
			}
			if g.healthy(n) {
				n.fails.Store(0)
				n.unhealthy.Set(0)
				continue
			}
			fails := n.fails.Add(1)
			n.unhealthy.Set(1)
			g.logf("gateway: %s failed health check (%d/%d)", n.cfg.name(), fails, g.cfg.FailAfter)
			if int(fails) >= g.cfg.FailAfter && n.cfg.Follower != "" {
				g.failover(n)
			}
		}
	}
}

// stamped sends one bodyless request over the health client, stamped
// with epoch (0 = unstamped), drains the answer, and reports its status
// code and the epoch the node stamped on it (0 = none).
func (g *Gateway) stamped(ctx context.Context, method, url string, epoch uint64) (code int, nodeEpoch uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return 0, 0, err
	}
	if epoch != 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := g.cfg.HealthClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	nodeEpoch, _ = strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	return resp.StatusCode, nodeEpoch, nil
}

// probe is a stamped GET of base's /v1/healthz, bounded by ProbeTimeout
// so a hung node reads as down, not as a stalled loop.
func (g *Gateway) probe(base string, epoch uint64) (code int, nodeEpoch uint64, err error) {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ProbeTimeout)
	defer cancel()
	return g.stamped(ctx, http.MethodGet, base+"/v1/healthz", epoch)
}

// healthy probes slot n's leader. The probe is stamped once the slot
// epoch is known: a leader that fell behind the epoch answers 409, reads
// as unhealthy, and is demoted by this very request. The slot learns the
// node's epoch from the answer either way.
func (g *Gateway) healthy(n *gwNode) bool {
	rt := n.route.Load()
	code, nodeEpoch, err := g.probe(rt.url, rt.epoch)
	if err != nil {
		return false
	}
	g.adoptEpoch(n, nodeEpoch)
	return code == http.StatusOK
}

// fenceRetired stamps the pre-promotion leader with the successor epoch
// so it demotes itself the moment it is reachable again (partition
// healed, process unstuck). Any HTTP answer settles it — the epoch
// middleware fences on sight of the newer stamp — while transport
// errors leave it queued for the next tick.
func (g *Gateway) fenceRetired(n *gwNode) {
	rt := n.route.Load()
	if rt.retired == "" {
		return
	}
	code, _, err := g.probe(rt.retired, rt.epoch)
	if err != nil {
		return // unreachable; retry next tick — healing is when fencing matters
	}
	g.logf("gateway: fenced retired leader %s at epoch %d (HTTP %d)", rt.retired, rt.epoch, code)
	g.reroute(n, func(r *slotRoute) bool {
		r.retired = ""
		return true
	})
}

// failover promotes n's follower under the successor epoch and swaps
// the slot's route. A failed promotion is retried on the next health
// tick (the miss counter stays over threshold).
func (g *Gateway) failover(n *gwNode) {
	promote := g.cfg.Promote
	if promote == nil {
		promote = g.httpPromote
	}
	// The successor epoch: one past what the slot last taught us, and
	// never below 2 (a pre-epoch slot still moves to a numbered era on
	// its first failover, fencing the old leader's implicit epoch 1).
	newEpoch := max(n.route.Load().epoch+1, 2)
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.PromoteTimeout)
	defer cancel()
	newURL, err := promote(ctx, n.cfg, newEpoch)
	if err != nil {
		g.logf("gateway: promoting follower of %s: %v", n.cfg.name(), err)
		return
	}
	g.reroute(n, func(r *slotRoute) bool {
		r.retired, r.url = r.url, newURL
		if n.cfg.FollowerBin != "" {
			r.binAddr = n.cfg.FollowerBin
		}
		// Never below an epoch a 409 taught the slot while the promotion
		// was in flight.
		r.epoch = max(r.epoch, newEpoch)
		return true
	})
	n.promoted.Store(true)
	n.fails.Store(0)
	n.unhealthy.Set(0)
	g.failovers.Inc()
	g.logf("gateway: promoted follower of %s at %s (epoch %d)", n.cfg.name(), newURL, n.route.Load().epoch)
}

// httpPromote is the default promotion: POST {follower}/v1/promote
// stamped with the successor epoch, routing to the follower once it
// answers 200 (it does so only after recovering the shipped state and
// swapping into serving mode at that epoch).
func (g *Gateway) httpPromote(ctx context.Context, n NodeConfig, epoch uint64) (string, error) {
	code, _, err := g.stamped(ctx, http.MethodPost, n.Follower+"/v1/promote", epoch)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("cluster: promote %s: HTTP %d", n.Follower, code)
	}
	return n.Follower, nil
}

// Handler returns the gateway's HTTP API: the availd read/write surface
// served cluster-wide.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if g.draining.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"state":"draining"}`)
			return
		}
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	})
	mux.HandleFunc("POST /v1/ingest", g.handleIngest)
	// The merged read endpoints are availd's own handler set, served
	// over the scatter-gathered view.
	ingest.RegisterReadHandlers(mux, g)
	mux.HandleFunc("GET /v1/swarm/{id}", g.proxySwarm)
	mux.HandleFunc("GET /v1/swarm/{id}/timeline", g.proxySwarm)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	if reg := g.cfg.Metrics; reg != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(reg))
		mux.Handle("GET /debug/vars", obs.VarsHandler(reg))
	}
	return mux
}

// route is the gateway's one router: it splits a write along the ring
// (whole swarms, never split; swarm names an item's) into per-slot
// shares in slot order, each with the key it travels under. A write that
// arrives keyed keeps its upstream key on every share — slots are
// independent dedup domains, so the client's retry of a lost gateway ack
// (or a second gateway's replay) still deduplicates at every node; an
// unkeyed one gets the slot's own gateway-originated key. whole reports
// a keyed write owned by a single slot: its one share is the write
// exactly as it arrived, key and all, so a front holding the encoded
// frame may forward those bytes verbatim.
func route[T any](g *Gateway, source string, seq uint64, items []T, swarm func(T) int) (shares []share[T], whole bool) {
	slots := make([]int, len(items))
	at := make([]int, len(g.nodes)) // per slot: its item count, then its index in shares
	owners := 0
	for i, it := range items {
		slots[i] = g.ring.Node(swarm(it))
		if at[slots[i]]++; at[slots[i]] == 1 {
			owners++
		}
	}
	shares = make([]share[T], 0, owners)
	for slot, n := range at {
		if n == 0 {
			continue
		}
		sh := share[T]{slot: slot, source: source, seq: seq}
		if source == "" {
			sh.source, sh.seq = g.nodes[slot].source, g.nodes[slot].seq.Add(1)
		}
		if owners == 1 {
			sh.items = items
			return append(shares, sh), source != ""
		}
		sh.items = make([]T, 0, n)
		at[slot] = len(shares)
		shares = append(shares, sh)
	}
	for i, it := range items {
		sh := &shares[at[slots[i]]]
		sh.items = append(sh.items, it)
	}
	return shares, false
}

// handleIngest routes the batch and delivers its shares concurrently.
// 200 {"accepted": n} means every node journaled its share; any other
// outcome acknowledges nothing, and the retrying client replays the
// batch — nodes that did accept their share see the replay again
// (at-least-once, the same contract a lone availd's lost-ack retry
// already imposes, and exactly-once under the key they kept).
//
// No queue orders one request's shares against another's: requests on
// one connection are served one after another, and a client that wants
// batch k applied before batch k+1 waits for k's ack — as every client
// of this API does — so per-swarm order is the client's order.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	var recs []ingest.Record
	source, seq, ok := ingest.ReadIngestRequest(w, r, func(rec ingest.Record) {
		recs = append(recs, rec)
	})
	if !ok {
		return
	}
	// The pushes end with the request or with the gateway, whichever
	// goes first.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	defer context.AfterFunc(g.ctx, func() { cancel(ErrGatewayClosed) })()

	shares, _ := route(g, source, seq, recs, func(rec ingest.Record) int { return rec.SwarmID })
	errs := make([]error, len(shares))
	var wg sync.WaitGroup
	for i, sh := range shares {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = g.deliver(ctx, sh)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	g.batches.Inc()
	g.records.Add(uint64(len(recs)))
	ingest.WriteJSON(w, map[string]int{"accepted": len(recs)})
}

// joinETags derives the gateway's validator from the per-node ones: the
// merged answer is a pure function of the node states, so the
// concatenation of their validators validates it. Empty when any node
// did not tag its answer (consistent reads, pre-ETag nodes).
func joinETags(etags []string) string {
	parts := make([]string, len(etags))
	for i, e := range etags {
		if e == "" {
			return ""
		}
		parts[i] = strings.Trim(e, `"`)
	}
	return `"` + strings.Join(parts, "+") + `"`
}

// nodeAnswer is one node's last parsed snapshot-path answer with its
// ETag; refreshes send If-None-Match and a 304 reuses the parsed copy
// without re-decoding. The node's ETag nonce changes with its engine
// incarnation, so a promoted follower can never validate the old
// leader's cache entry.
type nodeAnswer[T any] struct {
	etag string
	val  *T
}

// flight is one in-flight collapsed scatter-gather.
type flight[T any] struct {
	done chan struct{}
	val  *T
	etag string
	err  error
}

// scatter is one scatter-gathered read over a mergeable type: how to
// fetch a node's part, how to merge the parts, the per-node
// conditional-GET caches, and the in-flight snapshot-path read that
// concurrent identical reads wait for instead of each hitting every
// node.
type scatter[T any] struct {
	fetch     func(c *ingest.HTTPClient, ctx context.Context, consistent bool, inm string) (*T, string, bool, error)
	newMerged func(first *T) *T
	mergeInto func(dst, part *T) error
	cache     []atomic.Pointer[nodeAnswer[T]]

	mu       sync.Mutex
	inflight *flight[T]
}

// read returns the merged answer. All-or-nothing: a partial merge would
// silently undercount, so one unreachable node fails the read.
// Snapshot-path reads (the default) ride the per-node conditional-GET
// caches and collapse into one flight; the returned etag validates the
// merged answer. Consistent reads do neither and carry no etag — each
// must observe its own prior writes. A follower whose leader was
// cancelled retries as its own leader (a cancelled leader must not fail
// an unrelated caller).
func (s *scatter[T]) read(ctx context.Context, g *Gateway, consistent bool) (*T, string, error) {
	if consistent {
		val, _, err := s.gather(ctx, g, true)
		return val, "", err
	}
	for {
		s.mu.Lock()
		if f := s.inflight; f != nil {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					continue
				}
				g.collapsedReads.Inc()
				return f.val, f.etag, f.err
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}
		f := &flight[T]{done: make(chan struct{})}
		s.inflight = f
		s.mu.Unlock()
		f.val, f.etag, f.err = s.gather(ctx, g, false)
		s.mu.Lock()
		s.inflight = nil
		s.mu.Unlock()
		close(f.done)
		return f.val, f.etag, f.err
	}
}

// gather fetches every node's part in parallel and merges them in slot
// order into a fresh value — node caches are never mutated.
func (s *scatter[T]) gather(ctx context.Context, g *Gateway, consistent bool) (*T, string, error) {
	parts := make([]*T, len(g.nodes))
	etags := make([]string, len(g.nodes))
	errs := make([]error, len(g.nodes))
	var wg sync.WaitGroup
	for i, n := range g.nodes {
		wg.Add(1)
		go func(i int, n *gwNode) {
			defer wg.Done()
			c := n.route.Load().client
			if consistent {
				parts[i], _, _, errs[i] = s.fetch(c, ctx, true, "")
				return
			}
			var inm string
			cached := s.cache[i].Load()
			if cached != nil {
				inm = cached.etag
			}
			val, etag, notModified, err := s.fetch(c, ctx, false, inm)
			if err != nil {
				errs[i] = err
				return
			}
			if notModified {
				g.readCacheHits.Inc()
				parts[i], etags[i] = cached.val, cached.etag
				return
			}
			if etag != "" {
				s.cache[i].Store(&nodeAnswer[T]{etag: etag, val: val})
			}
			parts[i], etags[i] = val, etag
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// A stale-epoch answer must never be merged — but learn the
			// newer epoch so the next read is stamped correctly.
			var conflict *ingest.EpochConflictError
			if errors.As(err, &conflict) {
				g.adoptEpoch(g.nodes[i], conflict.NodeEpoch)
			}
			return nil, "", fmt.Errorf("node %s: %w", g.nodes[i].cfg.name(), err)
		}
	}
	merged := s.newMerged(parts[0])
	for i, part := range parts {
		if err := s.mergeInto(merged, part); err != nil {
			return nil, "", fmt.Errorf("node %s: %w", g.nodes[i].cfg.name(), err)
		}
	}
	return merged, joinETags(etags), nil
}

// ReadSummary and ReadWindow make the gateway an ingest.ReadView: the
// merge algebra is exact integer arithmetic in a fixed (slot) order, so
// the answers are byte-identical to a single engine over the whole
// stream.
func (g *Gateway) ReadSummary(ctx context.Context, consistent bool) (*ingest.Summary, string, error) {
	return g.state.read(ctx, g, consistent)
}

func (g *Gateway) ReadWindow(ctx context.Context, consistent bool) (*ingest.WindowState, string, error) {
	return g.window.read(ctx, g, consistent)
}

// proxySwarm forwards a per-swarm read (GET /v1/swarm/{id} and its
// /timeline) to the swarm's home node by ring slot, verbatim — the home
// node owns the swarm outright, so there is nothing to merge. The read
// is fenced like a merged one: stamped with the slot epoch once known,
// a node's 409 (stale or fenced) is a 503, never its state, and the
// slot learns the epoch the node answered with.
func (g *Gateway) proxySwarm(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad swarm id", http.StatusBadRequest)
		return
	}
	n := g.nodes[g.ring.Node(id)]
	rt := n.route.Load()
	target := rt.url + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if rt.epoch != 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(rt.epoch, 10))
	}
	resp, err := g.cfg.HealthClient.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf("node %s: %v", n.cfg.name(), err), http.StatusServiceUnavailable)
		return
	}
	defer resp.Body.Close()
	nodeEpoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	g.adoptEpoch(n, nodeEpoch)
	if resp.StatusCode == http.StatusConflict {
		conflict := &ingest.EpochConflictError{ClientEpoch: rt.epoch, NodeEpoch: nodeEpoch}
		http.Error(w, fmt.Sprintf("node %s: %v", n.cfg.name(), conflict), http.StatusServiceUnavailable)
		return
	}
	for _, h := range []string{"Content-Type", "ETag"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// clusterNodeStatus is one slot in the GET /v1/cluster body.
type clusterNodeStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Follower string `json:"follower,omitempty"`
	Promoted bool   `json:"promoted"`
	Epoch    uint64 `json:"epoch"`
	Fails    int    `json:"consecutive_health_failures"`
}

func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Nodes []clusterNodeStatus `json:"nodes"`
	}{}
	for _, n := range g.nodes {
		rt := n.route.Load()
		out.Nodes = append(out.Nodes, clusterNodeStatus{
			Name:     n.cfg.name(),
			URL:      rt.url,
			Follower: n.cfg.Follower,
			Promoted: n.promoted.Load(),
			Epoch:    rt.epoch,
			Fails:    int(n.fails.Load()),
		})
	}
	ingest.WriteJSON(w, out)
}
