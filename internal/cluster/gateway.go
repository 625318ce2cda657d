package cluster

import (
	"bytes"
	"context"
	"encoding/json"
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
	// -ingest-bin), where the gateway sends every write to the slot, from
	// both fronts. Required.
	BinAddr string
	// FollowerBin is the follower's binary ingest address, where writes go
	// once it is promoted. Required with Follower.
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
	// swarms to slot indices (DefaultVnodes points each), so order is part
	// of the cluster identity: every gateway over the same ordered
	// membership routes identically.
	Nodes []NodeConfig
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
	// Client carries every HTTP request the gateway sends a node — reads,
	// probes, promotions; writes go over the stream (default: a plain
	// http.Client; tests inject fault transports). Timeouts come from
	// contexts — ProbeTimeout, PromoteTimeout, the reader's request — not
	// from the client.
	Client *http.Client
	// Metrics, when set, registers gateway series.
	Metrics *obs.Registry
	// Logf, when set, receives lifecycle and failure lines.
	Logf func(format string, args ...any)
}

func (c GatewayConfig) withDefaults() GatewayConfig {
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
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// slotRoute is where a slot's traffic goes and under which epoch: one
// immutable value, replaced whole (reroute), so a reader never pairs
// the promoted follower's URL with the old leader's epoch and the
// believed epoch never moves backwards.
type slotRoute struct {
	url     string // current base URL (leader, then follower)
	binAddr string // current binary ingest address
	// epoch is the slot epoch the gateway believes (0 = not yet learned:
	// the exchange stamps 1 until a node teaches it). Promotion bumps it;
	// every node answer can raise it.
	epoch uint64
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

	// source and seq key the writes the gateway originates for this slot
	// (unkeyed client batches; keyed ones keep their upstream key):
	// "<random stem>#<slot>" and a counter.
	source string
	seq    atomic.Uint64

	unhealthy *obs.Gauge
}

// share is one slot's part of a routed write and the idempotency key its
// frame carries, so a resend (across a failover too) deduplicates
// server-side.
type share struct {
	slot   int
	source string
	seq    uint64
	ops    []ingest.Op
}

// fanout is one writer's side of the write fan-out: the upstream client
// each slot's shares ride, and scratch that route fills write after
// write. The stream front keeps one per connection, so once its buffers
// have grown to the writer's frame size a routed frame allocates
// nothing here; the HTTP front's requests take theirs from a pool.
type fanout struct {
	clients []*ingest.StreamClient // per slot
	bySlot  [][]ingest.Op          // per slot: its share's ops, when the write splits
	shares  []share
}

// Gateway is the cluster front door. It speaks the same API as a
// single availd — POST /v1/ingest and the merged read endpoints of
// ingest.RegisterReadHandlers — over N nodes:
//
//   - Writes, from either front, are partitioned by the consistent-hash
//     ring (whole swarms, never split: route) and each share rides its
//     slot's upstream stream client (push). A write is acknowledged only
//     when every node has journaled its share; a partial failure is
//     reported as 503 (ERR on the stream) and acknowledges nothing, so
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

	// ctx ends at Close: it stops the health loop and the calls it makes.
	// Its child streamsCtx also ends at CloseStreams, abandoning the
	// stream front's upstreams.
	ctx        context.Context
	cancel     context.CancelFunc
	streamsCtx context.Context
	endStreams context.CancelFunc
	health     chan struct{} // closed when the health loop has exited
	draining   atomic.Bool

	records   *obs.Counter
	batches   *obs.Counter
	pushFails *obs.Counter
	failovers *obs.Counter

	// upstreams carry the HTTP front's shares: one client per slot, shared
	// by every request and replaced when it fails a share (renew); Close
	// abandons them. fanouts recycles the requests' routing scratch.
	upstreams []atomic.Pointer[ingest.StreamClient]
	fanouts   sync.Pool // *fanout

	// streams accepts the stream front's connections (ServeStream) and
	// cuts them at Close.
	streams      ingest.StreamAcceptor
	streamConns  *obs.Counter
	streamFrames *obs.Counter

	// readCacheHits counts node answers served from the conditional-GET
	// caches (304).
	readCacheHits *obs.Counter

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
	ring, err := NewRing(len(cfg.Nodes), 0)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:       cfg,
		ring:      ring,
		health:    make(chan struct{}),
		upstreams: make([]atomic.Pointer[ingest.StreamClient], len(cfg.Nodes)),
		state: scatter[ingest.Summary]{
			path: "/v1/state",
			decode: func(d *json.Decoder) (*ingest.Summary, error) {
				var st ingest.SummaryState
				if err := d.Decode(&st); err != nil {
					return nil, err
				}
				return st.Summary()
			},
			newMerged: func(*ingest.Summary) *ingest.Summary { return ingest.NewSummary() },
			mergeInto: func(dst, part *ingest.Summary) error { dst.Merge(part); return nil },
			cache:     make([]atomic.Pointer[nodeAnswer[ingest.Summary]], len(cfg.Nodes)),
		},
		window: scatter[ingest.WindowState]{
			path: "/v1/window/state",
			decode: func(d *json.Decoder) (win *ingest.WindowState, err error) {
				win = new(ingest.WindowState)
				return win, d.Decode(win)
			},
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
	}
	stem := ingest.NewSourceID()
	for i, nc := range cfg.Nodes {
		switch {
		case nc.URL == "":
			return nil, fmt.Errorf("cluster: node %d has no URL", i)
		case nc.BinAddr == "":
			return nil, fmt.Errorf("cluster: node %d (%s) has no BinAddr", i, nc.name())
		case nc.Follower != "" && nc.FollowerBin == "":
			return nil, fmt.Errorf("cluster: node %d (%s) has a Follower but no FollowerBin", i, nc.name())
		}
		n := &gwNode{cfg: nc, source: stem + "#" + strconv.Itoa(i)}
		n.route.Store(&slotRoute{url: nc.URL, binAddr: nc.BinAddr})
		if reg := cfg.Metrics; reg != nil {
			n.unhealthy = reg.Gauge("gateway_node_unhealthy", obs.L("node", nc.name()))
			reg.GaugeFunc("gateway_slot_epoch",
				func() float64 { return float64(n.route.Load().epoch) },
				obs.L("node", nc.name()))
		}
		g.nodes = append(g.nodes, n)
		g.upstreams[i].Store(g.upstream(n))
	}
	g.streams.Handle = func(conn net.Conn) {
		if err := g.serveStreamConn(conn); err != nil {
			g.logf("gateway stream %s: %v", conn.RemoteAddr(), err)
		}
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	g.streamsCtx, g.endStreams = context.WithCancel(g.ctx)
	go g.healthLoop()
	return g, nil
}

// reroute replaces slot n's route with edit's revision of it, by
// compare-and-swap: edit runs again over the winner's value when another
// writer got in between, and returns false to leave the route alone
// (reroute then reports false). It is the only writer of gwNode.route.
func (g *Gateway) reroute(n *gwNode, edit func(r *slotRoute) bool) bool {
	for {
		cur := n.route.Load()
		next := *cur
		if !edit(&next) {
			return false
		}
		if n.route.CompareAndSwap(cur, &next) {
			return true
		}
	}
}

// adoptEpoch raises slot n's epoch to epoch. Lower or equal epochs are
// no-ops.
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

// Close stops the health loop, cuts the stream front (CloseStreams) and
// abandons the HTTP front's upstreams, failing its pushes in flight with
// ErrGatewayClosed, so nothing is forwarded through a closed gateway.
// Idempotent.
func (g *Gateway) Close() {
	g.cancel()
	<-g.health
	g.CloseStreams()
	for i := range g.upstreams {
		g.upstreams[i].Load().Abandon()
	}
}

// CloseStreams cuts the stream front's connections and refuses new
// ones, leaving the HTTP front, whose upstreams it keeps, to finish what
// it has in flight — the step a draining availgw takes before its HTTP
// shutdown. Unsettled upstream frames are abandoned: the monitors resend
// them.
func (g *Gateway) CloseStreams() {
	g.endStreams()
	g.streams.Close()
}

// nodeCall is one gateway→node request as its caller describes it; the
// exchange addresses and stamps it.
type nodeCall struct {
	method, path string // path with its query
	header       http.Header
	// to and epoch address and stamp the call; "" is the slot's current
	// node at the slot's epoch.
	to    string
	epoch uint64
}

// exchange is the gateway's one way to speak to a node: every
// gateway→node HTTP request goes out here, on the one Client, stamped.
// Each send reads slot n's route once and stamps its epoch — or 1, the
// epoch every node starts at, so it fences no one, while the slot has
// learned none: an unstamped read is served even by a fenced node, whose
// state must not be merged. Every answer raises the slot's epoch to the
// node's. A 409 from the slot's node ahead of the stamp is sent again,
// stamped with what it taught; any other 409 is an *EpochConflictError.
// An answer from the slot's node stamped behind the slot's epoch comes
// from a leader retired while the call was in flight: it acknowledges
// nothing and is never merged, and the call goes again on the current
// route. Any other answer is the caller's to read and close.
func (g *Gateway) exchange(ctx context.Context, n *gwNode, c nodeCall) (*http.Response, error) {
	for {
		rt := n.route.Load()
		base, epoch := rt.url, max(rt.epoch, 1)
		if c.to != "" {
			base, epoch = c.to, c.epoch
		}
		req, err := http.NewRequestWithContext(ctx, c.method, base+c.path, nil)
		if err != nil {
			return nil, err
		}
		for k, v := range c.header {
			req.Header[k] = v
		}
		req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
		resp, err := g.cfg.Client.Do(req)
		if err != nil {
			return nil, err
		}
		nodeEpoch, perr := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
		g.adoptEpoch(n, nodeEpoch)
		switch {
		case resp.StatusCode == http.StatusConflict:
			drain(resp)
			if c.to != "" || nodeEpoch <= epoch {
				return nil, &EpochConflictError{ClientEpoch: epoch, NodeEpoch: nodeEpoch}
			}
		case c.to == "" && perr == nil && n.behind(nodeEpoch):
			g.logf("gateway: %s answered at epoch %d, slot now at %d: sending again", n.cfg.name(), nodeEpoch, n.route.Load().epoch)
			drain(resp)
		default:
			return resp, nil
		}
	}
}

// drain discards what is left of an answer (up to 4 KiB, so the
// connection can be reused) and closes it.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// statusError reports an answer other than the one asked for: its
// status and the start of its body.
func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
}

// retryBase is the first wait between a read's attempts at a node; each
// further wait doubles, up to one HealthEvery, so a retry follows every
// health tick and sees every reroute.
const retryBase = 10 * time.Millisecond

// pause waits out the gap after failed attempt number attempt; false
// when ctx ends first.
func (g *Gateway) pause(ctx context.Context, attempt int) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(min(g.cfg.HealthEvery, retryBase<<min(attempt-1, 16))):
		return true
	}
}

// pushBudget is how long an upstream client to slot n keeps redialing
// without an ack: as long as the config says a failover takes. The
// health loop calls a leader down after FailAfter missed probes, each up
// to HealthEvery apart and ProbeTimeout long — a node down for less is
// one the gateway would not yet call down, so worth waiting for — and
// then, while the slot still has a follower, spends up to PromoteTimeout
// promoting it. A slot that cannot fail over stops at the first part:
// nothing is coming. A client keeps the budget it was built with.
func (g *Gateway) pushBudget(n *gwNode) time.Duration {
	d := time.Duration(g.cfg.FailAfter) * (g.cfg.HealthEvery + g.cfg.ProbeTimeout)
	if n.cfg.Follower != "" && !n.promoted.Load() {
		d += g.cfg.PromoteTimeout
	}
	return d
}

// upstream builds a stream client to slot n, the one way the gateway
// writes to a node. Its dial re-reads the slot's route, so a redial after
// a failover lands on the promoted follower, and stamps the connection
// with the slot's epoch (epochConn), so an ACK from a leader retired
// meanwhile acknowledges nothing. It redials for the slot's push budget.
func (g *Gateway) upstream(n *gwNode) *ingest.StreamClient {
	return ingest.NewStreamClient(ingest.StreamClientConfig{
		Dial: func(ctx context.Context) (net.Conn, error) {
			rt := n.route.Load()
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", rt.binAddr)
			if err != nil {
				return nil, err
			}
			return &epochConn{Conn: conn, n: n, epoch: max(rt.epoch, 1)}, nil
		},
		RetryFor: g.pushBudget(n),
		Logf:     g.cfg.Logf,
	})
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
			// Probed at the slot epoch: a leader that fell behind it answers
			// 409, reads as unhealthy, and is demoted by this very probe.
			if code, err := g.probe(n, "", 0); err == nil && code == http.StatusOK {
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

// probe GETs /v1/healthz from slot n's node (or to, stamped epoch),
// bounded by ProbeTimeout so a hung node reads as down, not as a
// stalled loop, and reports the status it answered, 409 included.
func (g *Gateway) probe(n *gwNode, to string, epoch uint64) (int, error) {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ProbeTimeout)
	defer cancel()
	resp, err := g.exchange(ctx, n, nodeCall{method: http.MethodGet, path: "/v1/healthz", to: to, epoch: epoch})
	if errors.As(err, new(*EpochConflictError)) {
		return http.StatusConflict, nil
	}
	if err != nil {
		return 0, err
	}
	drain(resp)
	return resp.StatusCode, nil
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
	code, err := g.probe(n, rt.retired, rt.epoch)
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
	// The successor epoch: one past what the slot last taught us, and
	// never below 2 (a slot still at the floor moves to a numbered era on
	// its first failover, fencing the old leader's epoch 1).
	newEpoch := max(n.route.Load().epoch+1, 2)
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.PromoteTimeout)
	defer cancel()
	if err := g.promote(ctx, n, newEpoch); err != nil {
		g.logf("gateway: promoting follower of %s: %v", n.cfg.name(), err)
		return
	}
	g.reroute(n, func(r *slotRoute) bool {
		r.retired, r.url, r.binAddr = r.url, n.cfg.Follower, n.cfg.FollowerBin
		// Never below an epoch a 409 taught the slot while the promotion
		// was in flight.
		r.epoch = max(r.epoch, newEpoch)
		return true
	})
	n.promoted.Store(true)
	n.fails.Store(0)
	n.unhealthy.Set(0)
	g.failovers.Inc()
	g.logf("gateway: promoted follower of %s at %s (epoch %d)", n.cfg.name(), n.cfg.Follower, n.route.Load().epoch)
}

// promote is the promotion call: POST {follower}/v1/promote stamped
// with the successor epoch. The follower answers 200 only after
// recovering the shipped state and swapping into serving mode at that
// epoch.
func (g *Gateway) promote(ctx context.Context, n *gwNode, epoch uint64) error {
	resp, err := g.exchange(ctx, n, nodeCall{method: http.MethodPost, path: "/v1/promote", to: n.cfg.Follower, epoch: epoch})
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: promote %s: %w", n.cfg.Follower, statusError(resp))
	}
	return nil
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
// (whole swarms, never split) into per-slot shares in slot order, each
// with the key it travels under, in fo's scratch: the shares are valid
// until fo routes again. A write that arrives keyed keeps its upstream
// key on every share — slots are independent dedup domains, so the
// client's retry of a lost gateway ack (or a second gateway's replay)
// still deduplicates at every node; an unkeyed one gets the slot's own
// gateway-originated key. whole reports a keyed write owned by a single
// slot: its one share is the write exactly as it arrived, key and all,
// so a front holding the encoded frame may forward those bytes verbatim.
//
// The ring is asked once per run of equal swarm ids — a monitor's frame
// is runs of one swarm's observations — and ops stay where they are
// until one belongs to another slot than the first, so a write one slot
// owns is never copied.
func (g *Gateway) route(fo *fanout, source string, seq uint64, ops []ingest.Op) (shares []share, whole bool) {
	if fo.bySlot == nil {
		fo.bySlot = make([][]ingest.Op, len(g.nodes))
	}
	for s := range fo.bySlot {
		fo.bySlot[s] = fo.bySlot[s][:0]
	}
	first, split := -1, false
	for i, slot, prev := 0, 0, 0; i < len(ops); i++ {
		if id := ops[i].SwarmID(); i == 0 || id != prev {
			slot, prev = g.ring.Node(id), id
		}
		switch {
		case i == 0:
			first = slot
		case split:
			fo.bySlot[slot] = append(fo.bySlot[slot], ops[i])
		case slot != first:
			split = true
			fo.bySlot[first] = append(fo.bySlot[first], ops[:i]...)
			fo.bySlot[slot] = append(fo.bySlot[slot], ops[i])
		}
	}
	fo.shares = fo.shares[:0]
	for slot, part := range fo.bySlot {
		if !split && slot == first {
			part = ops
		}
		if len(part) == 0 {
			continue
		}
		sh := share{slot: slot, source: source, seq: seq, ops: part}
		if source == "" {
			sh.source, sh.seq = g.nodes[slot].source, g.nodes[slot].seq.Add(1)
		}
		fo.shares = append(fo.shares, sh)
	}
	return fo.shares, !split && source != ""
}

// slotTarget is one share's watermark on the upstream client it was
// pushed to: the share is journaled once that client's acks cover it.
type slotTarget struct {
	slot int
	c    *ingest.StreamClient
	sent uint64
}

// push is the gateway's one write fan-out, both fronts': route the ops
// and hand each share to its slot's client in fo as one keyed frame —
// frame itself, byte for byte, when the write is keyed and one slot owns
// it all, else the share encoded under its key, once, into the envelope
// the client keeps for resend (PushOps). It returns each share's
// watermark for the caller to settle. Both fronts admit only ops the
// codec carries (DecodeFrameInto, ReadIngestRequest), so a push error
// is the upstream's.
func (g *Gateway) push(fo *fanout, source string, seq uint64, ops []ingest.Op, frame []byte) ([]slotTarget, error) {
	shares, whole := g.route(fo, source, seq, ops)
	targets := make([]slotTarget, 0, len(shares))
	for _, sh := range shares {
		c := fo.clients[sh.slot]
		var sent uint64
		var err error
		if whole && frame != nil {
			sent, err = c.PushFrame(frame)
		} else {
			sent, err = c.PushOps(sh.source, sh.seq, sh.ops)
		}
		if err != nil {
			return nil, g.renew(sh.slot, c, err)
		}
		targets = append(targets, slotTarget{slot: sh.slot, c: c, sent: sent})
	}
	return targets, nil
}

// settle waits until the acks cover every target: every node has
// journaled its share.
func (g *Gateway) settle(targets []slotTarget) error {
	for _, t := range targets {
		if err := t.c.WaitAcked(t.sent); err != nil {
			return g.renew(t.slot, t.c, err)
		}
	}
	return nil
}

// renew reports a share that failed on client c, abandons c and, while c
// is still slot's HTTP-front client, puts a fresh one in its place: the
// frames in c's window belong to requests answered 503, so none is
// resent on their account, and the next request starts on a new
// connection with a budget of its own.
func (g *Gateway) renew(slot int, c *ingest.StreamClient, err error) error {
	g.pushFails.Inc()
	if fresh := g.upstream(g.nodes[slot]); g.upstreams[slot].CompareAndSwap(c, fresh) && g.ctx.Err() != nil {
		fresh.Abandon() // Close has begun: nothing goes out through a closed gateway
	}
	c.Abandon()
	return fmt.Errorf("node %s: %w", g.nodes[slot].cfg.name(), err)
}

// handleIngest pushes the batch through the slots' shared upstream
// clients and answers once every share is settled. 200 {"accepted": n}
// means every node journaled its share; any other outcome acknowledges
// nothing, and the retrying client replays the batch — nodes that did
// take their share see the replay again (at-least-once, the same
// contract a lone availd's lost-ack retry already imposes, and
// exactly-once under the key they kept). A client that hangs up ends
// the wait; its shares settle or fail without it.
//
// No queue orders one request's shares against another's: requests on
// one connection are served one after another, and a client that wants
// batch k applied before batch k+1 waits for k's ack — as every client
// of this API does — so per-swarm order is the client's order. What is
// in flight is bounded by the upstream clients' windows.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	var ops []ingest.Op
	source, seq, ok := ingest.ReadIngestRequest(w, r, func(rec ingest.Record) {
		ops = append(ops, ingest.EventOp(rec))
	})
	if !ok {
		return
	}
	fo, _ := g.fanouts.Get().(*fanout)
	if fo == nil {
		fo = &fanout{clients: make([]*ingest.StreamClient, len(g.nodes))}
	}
	for slot := range fo.clients {
		fo.clients[slot] = g.upstreams[slot].Load()
	}
	res := make(chan error, 1)
	go func() {
		targets, err := g.push(fo, source, seq, ops, nil)
		g.fanouts.Put(fo) // the shares are sent; the targets are the caller's
		if err == nil {
			err = g.settle(targets)
		}
		res <- err
	}()
	var err error
	select {
	case err = <-res:
	case <-r.Context().Done():
		return
	}
	if err != nil && g.ctx.Err() != nil {
		err = ErrGatewayClosed
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	g.batches.Inc()
	g.records.Add(uint64(len(ops)))
	ingest.WriteJSON(w, map[string]int{"accepted": len(ops)})
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

// scatter is one scatter-gathered read over a mergeable type: where a
// node serves its part and how to decode it, how to merge the parts,
// and the per-node conditional-GET caches.
type scatter[T any] struct {
	path      string
	decode    func(d *json.Decoder) (*T, error)
	newMerged func(first *T) *T
	mergeInto func(dst, part *T) error
	cache     []atomic.Pointer[nodeAnswer[T]]
}

// read fetches every node's part in parallel and merges them in slot
// order into a fresh value — node caches are never mutated.
// All-or-nothing: a partial merge would silently undercount, so one
// unreachable node fails the read. Snapshot-path reads (the default)
// revalidate each node's cached part with a conditional GET; the
// returned etag validates the merged answer. Consistent reads skip the
// caches and carry no etag — each must observe its own prior writes.
func (s *scatter[T]) read(ctx context.Context, g *Gateway, consistent bool) (*T, string, error) {
	parts := make([]*T, len(g.nodes))
	etags := make([]string, len(g.nodes))
	errs := make([]error, len(g.nodes))
	var wg sync.WaitGroup
	for i, n := range g.nodes {
		wg.Add(1)
		go func(i int, n *gwNode) {
			defer wg.Done()
			if consistent {
				parts[i], _, errs[i] = s.fetch(ctx, g, n, true, "")
				return
			}
			var inm string
			cached := s.cache[i].Load()
			if cached != nil {
				inm = cached.etag
			}
			val, etag, err := s.fetch(ctx, g, n, false, inm)
			if err != nil {
				errs[i] = err
				return
			}
			if val == nil {
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
			// A stale-epoch answer is never merged; the exchange has already
			// learned the node's epoch for the next read.
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

// readAttempts bounds the tries at one node's part of a read: a merged
// read fails fast, all or nothing, rather than wait out a failover.
const readAttempts = 3

// fetch GETs slot n's part, conditional on inm when set: a few attempts,
// none after an epoch conflict. A nil part with a nil error is a 304.
func (s *scatter[T]) fetch(ctx context.Context, g *Gateway, n *gwNode, consistent bool, inm string) (*T, string, error) {
	c := nodeCall{method: http.MethodGet, path: s.path}
	if consistent {
		c.path += "?consistent=1"
	}
	if inm != "" {
		c.header = http.Header{"If-None-Match": {inm}}
	}
	for attempt := 1; ; attempt++ {
		val, etag, err := s.fetchOnce(ctx, g, n, c, inm)
		if err == nil || attempt == readAttempts || errors.As(err, new(*EpochConflictError)) || !g.pause(ctx, attempt) {
			return val, etag, err
		}
	}
}

func (s *scatter[T]) fetchOnce(ctx context.Context, g *Gateway, n *gwNode, c nodeCall, inm string) (*T, string, error) {
	resp, err := g.exchange(ctx, n, c)
	if err != nil {
		return nil, "", err
	}
	defer drain(resp)
	switch {
	case resp.StatusCode == http.StatusNotModified && inm != "":
		return nil, inm, nil
	case resp.StatusCode != http.StatusOK:
		return nil, "", statusError(resp)
	}
	val, err := s.decode(json.NewDecoder(resp.Body))
	if err != nil {
		return nil, "", fmt.Errorf("bad %s answer: %w", s.path, err)
	}
	return val, resp.Header.Get("ETag"), nil
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
// node owns the swarm outright, so there is nothing to merge. It goes
// through the exchange like every other request, so it is fenced like a
// merged read: a node's 409 (stale or fenced) is a 503, never its state.
func (g *Gateway) proxySwarm(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad swarm id", http.StatusBadRequest)
		return
	}
	n := g.nodes[g.ring.Node(id)]
	c := nodeCall{method: http.MethodGet, path: r.URL.RequestURI()}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		c.header = http.Header{"If-None-Match": {inm}}
	}
	resp, err := g.exchange(r.Context(), n, c)
	if err != nil {
		http.Error(w, fmt.Sprintf("node %s: %v", n.cfg.name(), err), http.StatusServiceUnavailable)
		return
	}
	defer resp.Body.Close()
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
