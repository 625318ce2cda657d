package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
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
	// QueueDepth bounds queued pushes per node (default 32); a full
	// queue back-pressures the ingest handler rather than buffering
	// unboundedly.
	QueueDepth int
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
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

// gwNode is one cluster slot's runtime state.
type gwNode struct {
	idx int
	cfg NodeConfig

	url      atomic.Value // string: current base URL (leader, then follower)
	binAddr  atomic.Value // string: current binary ingest address
	client   atomic.Pointer[ingest.HTTPClient]
	jobs     chan *pushJob
	fails    atomic.Int32 // consecutive failed health checks
	promoted atomic.Bool  // failover done; no second standby

	// epoch is the slot epoch the gateway believes (0 = not yet
	// learned; pre-epoch nodes never teach one). Promotion bumps it;
	// probe responses and 409s raise it.
	epoch atomic.Uint64
	// seq numbers the gateway-originated idempotency keys for this slot.
	seq atomic.Uint64
	// retired holds the pre-promotion leader's URL until the gateway has
	// fenced it (stamped it with the successor epoch); "" once done.
	retired atomic.Value // string

	unhealthy *obs.Gauge
}

func (n *gwNode) currentURL() string { return n.url.Load().(string) }

// pushJob is one node's share of an ingest request. source/seq is the
// idempotency key the sender stamps on every delivery attempt, so
// retries across passes (and across a failover) deduplicate server-side.
type pushJob struct {
	ctx    context.Context
	source string
	seq    uint64
	recs   []ingest.Record
	done   chan error // buffered(1): sender never blocks answering
}

// Gateway is the cluster front door. It speaks the same API as a
// single availd — POST /v1/ingest and the merged read endpoints of
// ingest.RegisterReadHandlers — over N nodes:
//
//   - Writes are partitioned by the consistent-hash ring (whole swarms,
//     never split) and fanned out through per-node retrying clients,
//     one in-order sender per node. The request is acknowledged only
//     when every node has journaled its share; a partial failure is
//     reported as 503 and acknowledges nothing, so the monitor's
//     retry preserves at-least-once delivery end to end.
//   - Reads scatter-gather /v1/state (or /v1/window/state) from every
//     node and merge with Summary.Merge (WindowState.Merge). The merge
//     algebra is exact (integer counters, sums and sketch bin counts),
//     the merge order is fixed (slot order), and
//     the rendering is the same code a single availd runs — so the
//     merged responses are byte-identical to a lone node that saw the
//     whole stream.
//   - A health loop probes each leader's /v1/healthz; FailAfter
//     consecutive misses promote the slot's follower and swap the
//     slot's client, redirecting queued and future pushes.
type Gateway struct {
	cfg   GatewayConfig
	ring  *Ring
	nodes []*gwNode

	healthClient *http.Client

	stop     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool

	records   *obs.Counter
	batches   *obs.Counter
	pushFails *obs.Counter
	failovers *obs.Counter

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

// NewGateway builds and starts a gateway: senders and the health loop
// are running when it returns. Close stops them.
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
		cfg:          cfg,
		ring:         ring,
		healthClient: cfg.HealthClient,
		stop:         make(chan struct{}),
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
		n := &gwNode{idx: i, cfg: nc, jobs: make(chan *pushJob, cfg.QueueDepth)}
		n.url.Store(nc.URL)
		n.binAddr.Store(nc.BinAddr)
		n.retired.Store("")
		n.client.Store(g.newClient(nc.URL, 0))
		if reg := cfg.Metrics; reg != nil {
			n.unhealthy = reg.Gauge("gateway_node_unhealthy", obs.L("node", nc.name()))
			reg.GaugeFunc("gateway_slot_epoch",
				func() float64 { return float64(n.epoch.Load()) },
				obs.L("node", nc.name()))
		}
		g.nodes = append(g.nodes, n)
	}
	for _, n := range g.nodes {
		g.wg.Add(1)
		go g.sender(n)
	}
	g.wg.Add(1)
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

// adoptEpoch raises slot n's epoch to epoch (CAS-max) and swaps in a
// client stamping it. Lower or equal epochs are no-ops.
func (g *Gateway) adoptEpoch(n *gwNode, epoch uint64) {
	for {
		cur := n.epoch.Load()
		if epoch <= cur {
			return
		}
		if n.epoch.CompareAndSwap(cur, epoch) {
			n.client.Store(g.newClient(n.currentURL(), epoch))
			g.logf("gateway: %s now at epoch %d", n.cfg.name(), epoch)
			return
		}
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
func (g *Gateway) NodeURL(i int) string { return g.nodes[i].currentURL() }

// SetDraining flips the gateway's /v1/healthz readiness answer: true
// makes it 503 {"state":"draining"} so load balancers stop routing new
// work here while in-flight requests finish (mirroring availd's
// -drain-grace sequence).
func (g *Gateway) SetDraining(v bool) { g.draining.Store(v) }

// Close stops the senders and health loop, failing any queued pushes.
func (g *Gateway) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	close(g.stop)
	g.wg.Wait()
	// Senders are gone; anything still buffered can only be answered
	// here. done is buffered, so this never blocks.
	for _, n := range g.nodes {
		for {
			select {
			case job := <-n.jobs:
				job.done <- ErrGatewayClosed
			default:
				goto next
			}
		}
	next:
	}
}

// sender delivers one node's pushes in order. In-order matters: records
// for a swarm are an event stream, and the engine applies them in
// arrival order, so the gateway must never let batch k+1 overtake
// batch k on its node.
func (g *Gateway) sender(n *gwNode) {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		case job := <-n.jobs:
			job.done <- g.deliver(n, job)
		}
	}
}

// deliver pushes one job, re-resolving the node's client between
// passes so a failover mid-push redirects the retry to the promoted
// follower rather than hammering a corpse.
func (g *Gateway) deliver(n *gwNode, job *pushJob) error {
	var lastErr error
	for pass := 1; pass <= g.cfg.SendPasses; pass++ {
		if err := job.ctx.Err(); err != nil {
			return err
		}
		client := n.client.Load()
		err := client.PushKeyed(job.ctx, job.source, job.seq, job.recs)
		if err == nil {
			return nil
		}
		// An epoch conflict from a node ahead of us is self-inflicted
		// staleness, not a node failure: adopt the newer epoch and retry
		// immediately with the re-stamped client.
		var conflict *ingest.EpochConflictError
		if errors.As(err, &conflict) && conflict.NodeEpoch > n.epoch.Load() {
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
		// next pass re-resolves the client.
		select {
		case <-job.ctx.Done():
			return job.ctx.Err()
		case <-g.stop:
			return lastErr
		case <-time.After(g.cfg.HealthEvery):
		}
	}
	return lastErr
}

// healthLoop probes each slot's current leader and promotes its
// follower after FailAfter consecutive misses.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
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

func (g *Gateway) healthy(n *gwNode) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.currentURL()+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	// Stamp the probe once the slot epoch is known: a leader that fell
	// behind the epoch answers 409, reads as unhealthy, and is demoted by
	// this very request. Learn from the response either way.
	if e := n.epoch.Load(); e != 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(e, 10))
	}
	resp, err := g.healthClient.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if e, perr := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64); perr == nil {
		g.adoptEpoch(n, e)
	}
	return resp.StatusCode == http.StatusOK
}

// fenceRetired stamps the pre-promotion leader with the successor epoch
// so it demotes itself the moment it is reachable again (partition
// healed, process unstuck). Any HTTP answer settles it — the epoch
// middleware fences on sight of the newer stamp — while transport
// errors leave it queued for the next tick.
func (g *Gateway) fenceRetired(n *gwNode) {
	retired, _ := n.retired.Load().(string)
	if retired == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, retired+"/v1/healthz", nil)
	if err != nil {
		n.retired.Store("")
		return
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(n.epoch.Load(), 10))
	resp, err := g.healthClient.Do(req)
	if err != nil {
		return // unreachable; retry next tick — healing is when fencing matters
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	g.logf("gateway: fenced retired leader %s at epoch %d (%s)", retired, n.epoch.Load(), resp.Status)
	n.retired.Store("")
}

// failover promotes n's follower under the successor epoch and swaps
// the slot's client. A failed promotion is retried on the next health
// tick (the miss counter stays over threshold).
func (g *Gateway) failover(n *gwNode) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.PromoteTimeout)
	defer cancel()
	promote := g.cfg.Promote
	if promote == nil {
		promote = g.httpPromote
	}
	// The successor epoch: one past what the slot last taught us, and
	// never below 2 (a pre-epoch slot still moves to a numbered era on
	// its first failover, fencing the old leader's implicit epoch 1).
	newEpoch := n.epoch.Load() + 1
	if newEpoch < 2 {
		newEpoch = 2
	}
	oldURL := n.currentURL()
	newURL, err := promote(ctx, n.cfg, newEpoch)
	if err != nil {
		g.logf("gateway: promoting follower of %s: %v", n.cfg.name(), err)
		return
	}
	n.promoted.Store(true)
	n.url.Store(newURL)
	if n.cfg.FollowerBin != "" {
		n.binAddr.Store(n.cfg.FollowerBin)
	}
	n.epoch.Store(newEpoch)
	n.client.Store(g.newClient(newURL, newEpoch))
	n.retired.Store(oldURL)
	n.fails.Store(0)
	n.unhealthy.Set(0)
	g.failovers.Inc()
	g.logf("gateway: promoted follower of %s at %s (epoch %d)", n.cfg.name(), newURL, newEpoch)
}

// httpPromote is the default promotion: POST {follower}/v1/promote
// stamped with the successor epoch, routing to the follower once it
// answers 200 (it does so only after recovering the shipped state and
// swapping into serving mode at that epoch).
func (g *Gateway) httpPromote(ctx context.Context, n NodeConfig, epoch uint64) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.Follower+"/v1/promote", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	resp, err := g.healthClient.Do(req)
	if err != nil {
		return "", err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: promote %s: %s", n.Follower, resp.Status)
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

// handleIngest partitions the batch by swarm across the ring and fans
// it out. 200 {"accepted": n} means every node journaled its share; any
// other outcome acknowledges nothing, and the retrying client replays
// the batch — nodes that did accept their share see the replay again
// (at-least-once, the same contract a lone availd's lost-ack retry
// already imposes).
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	perNode := make([][]ingest.Record, len(g.nodes))
	n := 0
	upSource, upSeq, ok := ingest.ReadIngestRequest(w, r, func(rec ingest.Record) {
		slot := g.ring.Node(rec.SwarmID)
		perNode[slot] = append(perNode[slot], rec)
		n++
	})
	if !ok {
		return
	}

	// A batch that arrives already keyed keeps its upstream key on every
	// slot's share — so the client's retry of a lost gateway ack (or a
	// second gateway's replay) still deduplicates at the nodes. Unkeyed
	// batches get a gateway-originated per-slot key instead.
	jobs := make([]*pushJob, 0, len(g.nodes))
	for slot, recs := range perNode {
		if len(recs) == 0 {
			continue
		}
		source, seq := upSource, upSeq
		if source == "" {
			source = g.cfg.SourceID + "#" + strconv.Itoa(slot)
			seq = g.nodes[slot].seq.Add(1)
		}
		job := &pushJob{ctx: r.Context(), source: source, seq: seq, recs: recs, done: make(chan error, 1)}
		select {
		case g.nodes[slot].jobs <- job:
			jobs = append(jobs, job)
		case <-r.Context().Done():
			http.Error(w, "client gone", http.StatusServiceUnavailable)
			return
		case <-g.stop:
			http.Error(w, ErrGatewayClosed.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	var firstErr error
	for _, job := range jobs {
		select {
		case err := <-job.done:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-g.stop:
			if firstErr == nil {
				firstErr = ErrGatewayClosed
			}
		}
	}
	if firstErr != nil {
		http.Error(w, firstErr.Error(), http.StatusServiceUnavailable)
		return
	}
	g.batches.Inc()
	g.records.Add(uint64(n))
	ingest.WriteJSON(w, map[string]int{"accepted": n})
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
			c := n.client.Load()
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
			if errors.As(err, &conflict) && conflict.NodeEpoch > g.nodes[i].epoch.Load() {
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
// node owns the swarm outright, so there is nothing to merge.
func (g *Gateway) proxySwarm(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad swarm id", http.StatusBadRequest)
		return
	}
	slot := g.ring.Node(id)
	target := g.nodes[slot].currentURL() + r.URL.Path
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
	resp, err := g.healthClient.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf("node %s: %v", g.nodes[slot].cfg.name(), err), http.StatusServiceUnavailable)
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
		out.Nodes = append(out.Nodes, clusterNodeStatus{
			Name:     n.cfg.name(),
			URL:      n.currentURL(),
			Follower: n.cfg.Follower,
			Promoted: n.promoted.Load(),
			Epoch:    n.epoch.Load(),
			Fails:    int(n.fails.Load()),
		})
	}
	ingest.WriteJSON(w, out)
}
