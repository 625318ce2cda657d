package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
)

// testNode is an in-process stand-in for one availd: engine plus the
// slice of the API the gateway talks to.
type testNode struct {
	e         *ingest.Engine
	srv       *httptest.Server
	healthy   atomic.Bool
	failAll   atomic.Bool   // 500 every ingest, for partial-failure tests
	readDelay atomic.Int64  // ns to stall reads, for collapse tests
	reads     atomic.Int64  // full (non-304) read bodies served
	stamp     atomic.Uint64 // epoch stamped on the last ingest (0 = none)
	promotes  atomic.Int32  // POST /v1/promote calls answered
	// hold, when set, stalls every ingest (after recording its stamp)
	// until it is closed: a leader paused mid-write.
	hold atomic.Pointer[chan struct{}]
}

func newTestNode(t *testing.T) *testNode {
	t.Helper()
	n := startTestNode(ingest.Config{Shards: 2, BatchSize: 16})
	t.Cleanup(func() { n.srv.Close(); n.e.Close() })
	return n
}

func startTestNode(cfg ingest.Config) *testNode {
	n := &testNode{e: ingest.New(cfg)}
	n.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		stamp, _ := strconv.ParseUint(r.Header.Get(EpochHeader), 10, 64)
		n.stamp.Store(stamp)
		if hold := n.hold.Load(); hold != nil {
			<-*hold
		}
		if n.failAll.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		sc := trace.NewScanner[ingest.Record](r.Body)
		var ops []ingest.Op
		for sc.Scan() {
			ops = append(ops, ingest.EventOp(sc.Record()))
		}
		if err := sc.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := n.e.Submit(ops); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		ingest.WriteJSON(w, map[string]int{"accepted": len(ops)})
	})
	// The read endpoints are availd's real shared handlers, wrapped for
	// the mock's hooks: an injectable delay, a flush up front so either
	// path sees every acked push — the read-your-writes discipline the
	// older gateway tests assume — and a count of full (non-304) bodies.
	reads := http.NewServeMux()
	ingest.RegisterReadHandlers(reads, n.e)
	mux.HandleFunc("GET /v1/", func(w http.ResponseWriter, r *http.Request) {
		if d := n.readDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		n.e.Flush()
		sw := &statusWriter{ResponseWriter: w}
		reads.ServeHTTP(sw, r)
		if sw.status != http.StatusNotModified {
			n.reads.Add(1)
		}
	})
	// Every test node can stand in for a follower: it answers the
	// gateway's promotion call, as a standby availd does once it serves.
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		n.promotes.Add(1)
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			http.Error(w, `{"state":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	})
	n.srv = httptest.NewServer(mux)
	return n
}

// statusWriter records the status a wrapped handler answers with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// fastClient is a retry-quick client template for tests.
var fastClient = ingest.HTTPClientConfig{
	MaxAttempts: 3,
	BackoffBase: 2 * time.Millisecond,
	BackoffCap:  10 * time.Millisecond,
}

func mkRecords(n, swarms, salt int) []ingest.Record {
	recs := make([]ingest.Record, n)
	for i := range recs {
		recs[i] = ingest.Record{
			SwarmID: (salt*n + i) % swarms,
			PeerID:  uint64(salt + 1),
			Seed:    i%3 != 2,
			Online:  (salt+i)%2 == 0,
			Time:    float64(salt*1000+i) / 100,
		}
	}
	return recs
}

// TestGatewayFanOutMergedReads is the heart of the scatter-gather
// contract: the gateway's /v1/summary and /v1/availability/cdf over a
// 3-node cluster must be byte-identical to a single availd that saw
// the whole stream.
func TestGatewayFanOutMergedReads(t *testing.T) {
	nodes := []*testNode{newTestNode(t), newTestNode(t), newTestNode(t)}
	cfg := GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "n0", URL: nodes[0].srv.URL},
			{Name: "n1", URL: nodes[1].srv.URL},
			{Name: "n2", URL: nodes[2].srv.URL},
		},
		HealthEvery: time.Hour, // health out of the way
		Logf:        t.Logf,
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	ref := ingest.New(ingest.Config{Shards: 2, BatchSize: 16})
	defer ref.Close()

	client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
		c := fastClient
		c.BaseURL = gw.URL
		return c
	}())
	fetch := func(base, path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: 200 with an empty body", path)
		}
		return string(body)
	}
	// parity compares every merged rendering against the reference
	// engine's. It runs on the empty cluster too: empty sketches have no
	// quantiles, and the CDF must still be a well-formed body on both.
	parity := func(stage string) {
		t.Helper()
		refSum := ref.Summary()
		for _, c := range []struct {
			path  string
			write func(w http.ResponseWriter)
		}{
			{"/v1/summary", func(w http.ResponseWriter) { ingest.WriteSummary(w, refSum) }},
			{"/v1/availability/cdf", func(w http.ResponseWriter) { ingest.WriteCDF(w, refSum, ingest.DefaultCDFQuantiles) }},
			{"/v1/state", func(w http.ResponseWriter) { ingest.WriteState(w, refSum) }},
		} {
			rec := httptest.NewRecorder()
			c.write(rec)
			if got, want := fetch(gw.URL, c.path), rec.Body.String(); got != want {
				t.Fatalf("%s: merged %s diverged from single-engine answer\n--- gateway ---\n%s--- reference ---\n%s", stage, c.path, got, want)
			}
		}
	}
	parity("empty cluster")

	const swarms = 151
	for batch := 0; batch < 12; batch++ {
		recs := mkRecords(64, swarms, batch)
		if err := client.Push(context.Background(), recs); err != nil {
			t.Fatalf("push %d: %v", batch, err)
		}
		ops := make([]ingest.Op, len(recs))
		for i, rec := range recs {
			ops[i] = ingest.EventOp(rec)
		}
		if err := ref.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()

	// Every swarm must live on exactly one node, and the populations
	// must add up.
	total := 0
	for i, n := range nodes {
		n.e.Flush()
		got := n.e.Summary().Swarms
		if got == 0 {
			t.Fatalf("node %d holds no swarms; ring is not spreading", i)
		}
		total += got
	}
	if total != swarms {
		t.Fatalf("nodes hold %d swarms total, want %d (a swarm was split or lost)", total, swarms)
	}

	parity("loaded cluster")
}

// TestGatewayPartialFailureNoAck: if any node cannot journal its share,
// the gateway must not acknowledge the batch — and, the node's slot
// having no follower to fail over to, it says so within the push budget
// the health settings derive: FailAfter × (HealthEvery + ProbeTimeout),
// here 2 × (50 ms + 50 ms).
func TestGatewayPartialFailureNoAck(t *testing.T) {
	good, bad := newTestNode(t), newTestNode(t)
	bad.failAll.Store(true)
	cfg := GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "good", URL: good.srv.URL},
			{Name: "bad", URL: bad.srv.URL},
		},
		HealthEvery: 50 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
		c := fastClient
		c.MaxAttempts = 1
		c.BaseURL = gw.URL
		return c
	}())
	budget := g.pushBudget(g.nodes[1])
	if budget != 200*time.Millisecond {
		t.Fatalf("push budget of a slot with no follower = %v, want FailAfter × (HealthEvery + ProbeTimeout) = 200ms", budget)
	}
	start := time.Now()
	err = client.Push(context.Background(), mkRecords(64, 51, 0))
	if err == nil {
		t.Fatal("gateway acknowledged a batch one node refused to journal")
	}
	// The last attempt is cut at the budget; what is left is one round
	// trip to the gateway and back.
	if took := time.Since(start); took > budget+time.Second {
		t.Fatalf("the 503 took %v, past the %v push budget", took, budget)
	}
	t.Logf("push correctly failed after %v: %v", time.Since(start), err)
}

// TestGatewayFailover: when a node dies, the health loop promotes its
// follower and in-flight pushes land there.
func TestGatewayFailover(t *testing.T) {
	alive, dying, standby := newTestNode(t), newTestNode(t), newTestNode(t)
	cfg := GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "n0", URL: alive.srv.URL},
			{Name: "n1", URL: dying.srv.URL, Follower: standby.srv.URL},
		},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
		c := fastClient
		c.MaxAttempts = 2
		c.BaseURL = gw.URL
		return c
	}())
	if err := client.Push(context.Background(), mkRecords(64, 51, 0)); err != nil {
		t.Fatalf("pre-failure push: %v", err)
	}

	// Kill node 1: its listener vanishes, pushes and health checks fail.
	dying.srv.Close()

	// This push includes swarms homed on the dead node; the sender must
	// ride through the failover and land them on the standby.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Push(ctx, mkRecords(64, 51, 1)); err != nil {
		t.Fatalf("push during failover: %v", err)
	}
	if got := standby.promotes.Load(); got != 1 {
		t.Fatalf("promote called %d times, want 1", got)
	}
	if g.NodeURL(1) != standby.srv.URL {
		t.Fatalf("slot 1 routes to %s, want standby %s", g.NodeURL(1), standby.srv.URL)
	}
	standby.e.Flush()
	if standby.e.Summary().Events == 0 {
		t.Fatal("standby received no records after promotion")
	}
	t.Logf("standby holds %d events after failover", standby.e.Summary().Events)
}

// TestGatewaySlotEpochNeverDecreases: a slot's believed epoch is
// monotonic across a failover. While the promotion call is in flight the
// slot learns epoch 9 (what a 409 from a node another gateway already
// fenced teaches it); the failover, which set out to install epoch 2,
// must not take the slot back down — and the push it redirects is
// stamped with what /v1/cluster reports.
func TestGatewaySlotEpochNeverDecreases(t *testing.T) {
	dying, standby := newTestNode(t), newTestNode(t)
	var gwp atomic.Pointer[Gateway]
	// The standby, except that its promotion answer waits until the slot
	// has learned epoch 9.
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/promote" {
			for gwp.Load() == nil {
				time.Sleep(time.Millisecond)
			}
			g := gwp.Load()
			g.adoptEpoch(g.nodes[0], 9)
		}
		standby.srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer follower.Close()
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: dying.srv.URL, Follower: follower.URL}},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gwp.Store(g)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	dying.srv.Close()
	client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
		c := fastClient
		c.BaseURL = gw.URL
		return c
	}())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Push(ctx, mkRecords(16, 5, 0)); err != nil {
		t.Fatalf("push across the failover: %v", err)
	}

	var status struct {
		Nodes []clusterNodeStatus `json:"nodes"`
	}
	if err := json.Unmarshal(fetchBody(t, gw.URL+"/v1/cluster"), &status); err != nil {
		t.Fatal(err)
	}
	if got := status.Nodes[0]; !got.Promoted || got.Epoch < 9 {
		t.Fatalf("slot after failover: promoted=%v epoch=%d, want promoted at epoch >= 9 (an epoch once learned is never unlearned)", got.Promoted, got.Epoch)
	}
	if got, want := standby.stamp.Load(), status.Nodes[0].Epoch; got != want {
		t.Fatalf("push to the promoted follower stamped epoch %d, slot is at %d", got, want)
	}
}

// TestGatewayCloseFailsPushInFlight: with no sender goroutines the
// gateway's only goroutine is the health loop, and a push owns its
// deliveries. Close while a push sits in deliver's retry loop must
// answer that request 503 at once — not when the slot's push budget runs
// out — and leave no goroutine behind.
func TestGatewayCloseFailsPushInFlight(t *testing.T) {
	node := newTestNode(t)
	node.failAll.Store(true)
	nodeTr, gwTr := &http.Transport{}, &http.Transport{DisableKeepAlives: true}
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	g, err := NewGateway(GatewayConfig{
		Nodes:  []NodeConfig{{Name: "n0", URL: node.srv.URL}},
		Client: &http.Client{Transport: nodeTr},
		// The push budget: FailAfter × (HealthEvery + ProbeTimeout) =
		// 3 × (5 s + 5 s) = 30 s.
		HealthEvery: 5 * time.Second,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())

	type answer struct {
		code int
		body string
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := (&http.Client{Transport: gwTr}).Post(gw.URL+"/v1/ingest", "application/x-ndjson",
			strings.NewReader(`{"swarm_id":1,"peer_id":1,"seed":true,"online":true,"t":0}`+"\n"))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		answered <- answer{code: resp.StatusCode, body: string(body)}
	}()
	// The first attempt has failed: the push is now retrying.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ := reg.Value("gateway_push_failures_total"); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the push never reached its first failed attempt")
		}
	}

	start := time.Now()
	g.Close()
	select {
	case a := <-answered:
		if a.err != nil || a.code != http.StatusServiceUnavailable || !strings.Contains(a.body, ErrGatewayClosed.Error()) {
			t.Fatalf("push caught by Close: %d %q %v, want 503 %q", a.code, a.body, a.err, ErrGatewayClosed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the push waiting out its budget")
	}
	t.Logf("push answered %v after Close", time.Since(start))

	gw.Close()
	nodeTr.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before NewGateway, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestGatewayConcurrentPushesAcrossFailover: eight clients push disjoint
// swarms through one gateway while one node's follower is promoted
// under them. No queue serialises the requests; each must land
// exactly once — every share on the node that owns it, none
// on the corpse — and the merged state must equal a lone engine's that
// saw each client's batches in that client's order.
func TestGatewayConcurrentPushesAcrossFailover(t *testing.T) {
	alive, dying, standby := newTestNode(t), newTestNode(t), newTestNode(t)
	g, err := NewGateway(GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "n0", URL: alive.srv.URL},
			{Name: "n1", URL: dying.srv.URL, Follower: standby.srv.URL},
		},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	ref := ingest.New(ingest.Config{Shards: 2, BatchSize: 16})
	defer ref.Close()

	// The node dies with nothing on it, so nothing the reference holds is
	// lost with it; every push below races the failover.
	dying.srv.Close()

	const clients, batches, perBatch, swarmsEach = 8, 6, 48, 13
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
				cc := fastClient
				cc.MaxAttempts = 1 // a replayed request would hide a lost or doubled share
				cc.BaseURL = gw.URL
				return cc
			}())
			for b := 0; b < batches; b++ {
				recs := mkRecords(perBatch, swarmsEach, b)
				ops := make([]ingest.Op, len(recs))
				for i := range recs {
					recs[i].SwarmID += c * 1000 // this client's swarms, no one else's
					ops[i] = ingest.EventOp(recs[i])
				}
				if err := client.Push(ctx, recs); err != nil {
					errs <- fmt.Errorf("client %d batch %d: %w", c, b, err)
					return
				}
				if err := ref.Submit(ops); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if g.NodeURL(1) != standby.srv.URL {
		t.Fatalf("slot 1 routes to %s, want standby %s", g.NodeURL(1), standby.srv.URL)
	}
	alive.e.Flush()
	standby.e.Flush()
	dying.e.Flush()
	if got := dying.e.Summary().Events; got != 0 {
		t.Fatalf("the dead node applied %d events", got)
	}
	got := alive.e.Summary().Events + standby.e.Summary().Events
	if want := uint64(clients * batches * perBatch); got != want || standby.e.Summary().Events == 0 {
		t.Fatalf("nodes hold %d events (%d on the standby), want exactly %d spread over both", got, standby.e.Summary().Events, want)
	}
	ref.Flush()
	want := httptest.NewRecorder()
	ingest.WriteState(want, ref.Summary())
	if merged := fetchBody(t, gw.URL+"/v1/state"); !bytes.Equal(merged, want.Body.Bytes()) {
		t.Fatalf("merged /v1/state diverged from the single-engine reference\n--- gateway ---\n%s--- reference ---\n%s", merged, want.Body.Bytes())
	}
}

// TestExchangeEpochConflict: the exchange stamps 1 before its slot has
// learned an epoch, and adopts whatever epoch a node answers with. A 409
// from a node ahead of the stamp is sent again at once, stamped with
// what it taught — a push that meets one is not a failed attempt — and
// a 409 from a node fenced at the stamp is an *EpochConflictError.
func TestExchangeEpochConflict(t *testing.T) {
	var own atomic.Uint64
	var fenced atomic.Bool
	own.Store(5)
	var mu sync.Mutex
	var stamps []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stamp := r.Header.Get(EpochHeader)
		mu.Lock()
		stamps = append(stamps, stamp)
		mu.Unlock()
		w.Header().Set(EpochHeader, strconv.FormatUint(own.Load(), 10))
		if stamp != strconv.FormatUint(own.Load(), 10) || fenced.Load() {
			http.Error(w, `{"error":"stale"}`, http.StatusConflict)
			return
		}
		if r.URL.Path == "/v1/ingest" {
			io.Copy(io.Discard, r.Body)
			ingest.WriteJSON(w, map[string]int{"accepted": 1})
			return
		}
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	}))
	defer srv.Close()
	seen := func() []string {
		mu.Lock()
		defer mu.Unlock()
		s := stamps
		stamps = nil
		return s
	}
	reg := obs.NewRegistry()
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: srv.URL}},
		HealthEvery: time.Hour,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	n := g.nodes[0]
	healthz := nodeCall{method: http.MethodGet, path: "/v1/healthz"}

	resp, err := g.exchange(context.Background(), n, healthz)
	if err != nil {
		t.Fatalf("exchange with a node at 5, slot epoch unlearned: %v", err)
	}
	drain(resp)
	if got := seen(); fmt.Sprint(got) != "[1 5]" {
		t.Fatalf("stamps %q, want [1 5]: the floor epoch, then what the node taught", got)
	}
	if got := n.route.Load().epoch; got != 5 {
		t.Fatalf("slot at epoch %d after the node answered 5", got)
	}

	fenced.Store(true)
	_, err = g.exchange(context.Background(), n, healthz)
	var conflict *EpochConflictError
	if !errors.As(err, &conflict) || conflict.ClientEpoch != 5 || conflict.NodeEpoch != 5 {
		t.Fatalf("exchange with a node fenced at the slot's epoch: %v, want *EpochConflictError{5, 5}", err)
	}
	if got := seen(); fmt.Sprint(got) != "[5]" {
		t.Fatalf("stamps %q, want [5]: a fenced node is asked once", got)
	}

	fenced.Store(false)
	own.Store(6) // the node moves on: the push's first attempt is behind
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	if err := pushBatch(gw.URL, mkRecords(1, 1, 0)); err != nil {
		t.Fatalf("push to a node one epoch ahead: %v", err)
	}
	if got := seen(); fmt.Sprint(got) != "[5 6]" {
		t.Fatalf("push stamps %q, want [5 6]: one conflict, then a re-stamped send", got)
	}
	if v, _ := reg.Value("gateway_push_failures_total"); v != 0 {
		t.Fatalf("gateway_push_failures_total = %v: a conflict with a node ahead is not a failure", v)
	}
}

// pushBatch POSTs recs to a gateway's /v1/ingest once, unkeyed.
func pushBatch(base string, recs []ingest.Record) error {
	c := ingest.NewHTTPClient(ingest.HTTPClientConfig{BaseURL: base, MaxAttempts: 1})
	return c.Push(context.Background(), recs)
}

// stampLog records the X-Avail-Epoch stamp of every request a set of
// fake nodes sees, before their epoch gates judge it.
type stampLog struct {
	mu   sync.Mutex
	seen []string // "node METHOD path stamp"
}

func (l *stampLog) record(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.seen = append(l.seen, fmt.Sprintf("%s %s %s %q", node, r.Method, r.URL.Path, r.Header.Get(EpochHeader)))
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// unstamped returns the recorded requests that carried no epoch, or
// epoch 0, and how many requests were recorded.
func (l *stampLog) unstamped() (bad []string, total int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.seen {
		if strings.HasSuffix(s, ` ""`) || strings.HasSuffix(s, ` "0"`) {
			bad = append(bad, s)
		}
	}
	return bad, len(l.seen)
}

// gatedNode is a test node behind a memory-only EpochGate, with the
// per-swarm route and the promotion call the gateway uses, every request
// recorded. POST /v1/promote adopts its stamp and is not gated, as on a
// standby availd.
func gatedNode(t *testing.T, name string, log *stampLog) (*testNode, *EpochGate, *httptest.Server) {
	t.Helper()
	tn := newTestNode(t)
	gate, err := OpenEpochGate("", obs.NewRegistry(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	api := http.NewServeMux()
	api.Handle("/", tn.srv.Config.Handler)
	api.HandleFunc("GET /v1/swarm/{id}", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, map[string]string{"swarm": r.PathValue("id")})
	})
	gated := gate.Middleware(api)
	srv := httptest.NewServer(log.record(name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/promote" {
			epoch, _ := strconv.ParseUint(r.Header.Get(EpochHeader), 10, 64)
			if err := gate.Adopt(epoch); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			ingest.WriteJSON(w, map[string]string{"state": "serving"})
			return
		}
		gated.ServeHTTP(w, r)
	})))
	t.Cleanup(srv.Close)
	return tn, gate, srv
}

// TestGatewayEveryNodeRequestStamped is the exchange's structural
// invariant: whatever the gateway sends a node — a push, both scatter
// reads, a per-swarm read, a health probe, a promotion, the retired
// leader's fence — carries a non-zero epoch, and the slot's epoch never
// decreases while all of it happens.
func TestGatewayEveryNodeRequestStamped(t *testing.T) {
	var log stampLog
	leader, leaderGate, leaderSrv := gatedNode(t, "leader", &log)
	_, followerGate, followerSrv := gatedNode(t, "follower", &log)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: leaderSrv.URL, Follower: followerSrv.URL}},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Sample the slot epoch throughout.
	stop := make(chan struct{})
	sampled := make(chan []uint64)
	go func() {
		var epochs []uint64
		for {
			if e := g.nodes[0].route.Load().epoch; len(epochs) == 0 || e != epochs[len(epochs)-1] {
				epochs = append(epochs, e)
			}
			select {
			case <-stop:
				sampled <- epochs
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	traffic := func(stage string) {
		t.Helper()
		if err := pushBatch(gw.URL, mkRecords(16, 7, 0)); err != nil {
			t.Fatalf("%s: push: %v", stage, err)
		}
		for _, path := range []string{"/v1/summary", "/v1/window/state", "/v1/swarm/5"} {
			resp, err := http.Get(gw.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: GET %s: %s", stage, path, resp.Status)
			}
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	traffic("before the failover")
	waitFor("a health tick", func() bool {
		_, total := log.unstamped()
		return total > 8
	})
	leader.healthy.Store(false) // the leader's /v1/healthz answers 503: failover
	waitFor("the promotion", func() bool { return g.NodeURL(0) == followerSrv.URL })
	waitFor("the retired leader's fence", leaderGate.Fenced)
	traffic("after the failover")

	close(stop)
	epochs := <-sampled
	for i := 1; i < len(epochs); i++ {
		if epochs[i] < epochs[i-1] {
			t.Fatalf("slot epoch went backwards: %v", epochs)
		}
	}
	if got := followerGate.Epoch(); got != 2 || leaderGate.Epoch() != 2 {
		t.Fatalf("follower at epoch %d, fenced leader at %d, want both at 2", got, leaderGate.Epoch())
	}
	bad, total := log.unstamped()
	if len(bad) > 0 {
		t.Fatalf("%d of %d node requests went out unstamped:\n%s", len(bad), total, strings.Join(bad, "\n"))
	}
	t.Logf("%d node requests, all stamped; slot epochs %v", total, epochs)
}

// TestGatewayStaleAnswerAfterFailover: a push is in flight to a leader
// that stalls — its gate has admitted the write at epoch 1 — while the
// health loop promotes the follower at epoch 2. When the leader resumes
// it journals the share and answers 200 stamped 1. That answer is behind
// the slot and must not acknowledge anything: the share would exist only
// on the retired node. The exchange sends it again to the promoted
// follower, so the acknowledged push is there.
func TestGatewayStaleAnswerAfterFailover(t *testing.T) {
	var log stampLog
	leader, _, leaderSrv := gatedNode(t, "leader", &log)
	follower, followerGate, followerSrv := gatedNode(t, "follower", &log)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: leaderSrv.URL, Follower: followerSrv.URL}},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	hold := make(chan struct{})
	leader.hold.Store(&hold)
	recs := mkRecords(16, 7, 0)
	pushed := make(chan error, 1)
	go func() { pushed <- pushBatch(gw.URL, recs) }()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the push to reach the leader", func() bool { return leader.stamp.Load() != 0 })
	leader.healthy.Store(false) // stalled: its probes fail too
	waitFor("the promotion", func() bool { return g.NodeURL(0) == followerSrv.URL })
	close(hold) // the leader resumes and answers at the epoch it admitted

	if err := <-pushed; err != nil {
		t.Fatalf("push across the failover: %v", err)
	}
	follower.e.Flush()
	if got, want := follower.e.Summary().Events, uint64(len(recs)); got != want {
		t.Fatalf("the promoted node holds %d of the %d acknowledged records: the gateway took a retired leader's answer as an ack", got, want)
	}
	if got := follower.stamp.Load(); got != followerGate.Epoch() {
		t.Fatalf("the resend was stamped %d, the promoted node is at %d", got, followerGate.Epoch())
	}
}
