package cluster

import (
	"bytes"
	"context"
	"encoding/json"
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
		ClientConfig: fastClient,
		HealthEvery:  time.Hour, // health out of the way
		Logf:         t.Logf,
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
// the gateway must not acknowledge the batch.
func TestGatewayPartialFailureNoAck(t *testing.T) {
	good, bad := newTestNode(t), newTestNode(t)
	bad.failAll.Store(true)
	cfg := GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "good", URL: good.srv.URL},
			{Name: "bad", URL: bad.srv.URL},
		},
		ClientConfig: func() ingest.HTTPClientConfig {
			c := fastClient
			c.MaxAttempts = 2
			return c
		}(),
		SendPasses:  1,
		HealthEvery: time.Hour,
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
	err = client.Push(context.Background(), mkRecords(64, 51, 0))
	if err == nil {
		t.Fatal("gateway acknowledged a batch one node refused to journal")
	}
	t.Logf("push correctly failed: %v", err)
}

// TestGatewayFailover: when a node dies, the health loop promotes its
// follower and in-flight pushes land there.
func TestGatewayFailover(t *testing.T) {
	alive, dying, standby := newTestNode(t), newTestNode(t), newTestNode(t)
	var promoteCalls atomic.Int32
	cfg := GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "n0", URL: alive.srv.URL},
			{Name: "n1", URL: dying.srv.URL, Follower: standby.srv.URL},
		},
		ClientConfig: fastClient,
		HealthEvery:  20 * time.Millisecond,
		FailAfter:    2,
		SendPasses:   40,
		Promote: func(ctx context.Context, n NodeConfig, epoch uint64) (string, error) {
			promoteCalls.Add(1)
			return n.Follower, nil
		},
		Logf: t.Logf,
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
	if promoteCalls.Load() != 1 {
		t.Fatalf("promote called %d times, want 1", promoteCalls.Load())
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
// monotonic across a failover. While Promote is in flight the slot
// learns epoch 9 (what a 409 from a node another gateway already fenced
// teaches it); the failover, which set out to install epoch 2, must not
// take the slot back down — and the client it installs stamps what
// /v1/cluster reports.
func TestGatewaySlotEpochNeverDecreases(t *testing.T) {
	dying, standby := newTestNode(t), newTestNode(t)
	var gwp atomic.Pointer[Gateway]
	g, err := NewGateway(GatewayConfig{
		Nodes:        []NodeConfig{{Name: "n0", URL: dying.srv.URL, Follower: standby.srv.URL}},
		ClientConfig: fastClient,
		HealthEvery:  20 * time.Millisecond,
		FailAfter:    2,
		SendPasses:   40,
		Promote: func(ctx context.Context, n NodeConfig, epoch uint64) (string, error) {
			for gwp.Load() == nil {
				time.Sleep(time.Millisecond)
			}
			g := gwp.Load()
			g.adoptEpoch(g.nodes[0], 9)
			return n.Follower, nil
		},
		Logf: t.Logf,
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
// deliveries. Close while a push sits in deliver's between-pass wait
// must answer that request 503 at once — not after HealthEvery ×
// SendPasses — and leave no goroutine behind.
func TestGatewayCloseFailsPushInFlight(t *testing.T) {
	node := newTestNode(t)
	node.failAll.Store(true)
	nodeTr, gwTr := &http.Transport{}, &http.Transport{DisableKeepAlives: true}
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	clientCfg := fastClient
	clientCfg.MaxAttempts = 1
	clientCfg.Client = &http.Client{Transport: nodeTr}
	g, err := NewGateway(GatewayConfig{
		Nodes:        []NodeConfig{{Name: "n0", URL: node.srv.URL}},
		ClientConfig: clientCfg,
		HealthClient: &http.Client{Transport: nodeTr},
		HealthEvery:  5 * time.Second, // the between-pass wait; 8 passes = 40 s
		Metrics:      reg,
		Logf:         t.Logf,
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
	// The first pass has failed: the push is now waiting out HealthEvery.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ := reg.Value("gateway_push_failures_total"); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the push never reached its first failed pass")
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
		t.Fatal("Close left the push waiting out its passes")
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
		ClientConfig: fastClient,
		HealthEvery:  20 * time.Millisecond,
		FailAfter:    2,
		SendPasses:   100,
		Promote: func(ctx context.Context, n NodeConfig, epoch uint64) (string, error) {
			return n.Follower, nil
		},
		Logf: t.Logf,
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
