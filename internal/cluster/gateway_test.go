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
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/faultnet"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// testNode is an in-process stand-in for one availd: engine plus the
// slice of the API the gateway talks to — the binary stream it writes
// to, and the HTTP reads, probes and promotion call.
type testNode struct {
	e         *ingest.Engine
	srv       *httptest.Server
	bin       string // the stream listener's address (NodeConfig.BinAddr)
	kill      func() // closes both listeners: a node that died
	healthy   atomic.Bool
	failAll   atomic.Bool  // refuse every write (ERR state), for partial-failure tests
	readDelay atomic.Int64 // ns to stall reads, for collapse tests
	reads     atomic.Int64 // full (non-304) read bodies served
	writes    atomic.Int64 // stream commits the node was asked for
	promotes  atomic.Int32 // POST /v1/promote calls answered
	// hold, when set, stalls every commit (after counting it) until it is
	// closed: a leader paused mid-write.
	hold atomic.Pointer[chan struct{}]
}

func newTestNode(t *testing.T) *testNode {
	t.Helper()
	return startTestNode(t, ingest.Config{Shards: 2, BatchSize: 16})
}

func startTestNode(tb testing.TB, cfg ingest.Config) *testNode {
	tb.Helper()
	n := &testNode{e: ingest.New(cfg)}
	n.healthy.Store(true)
	mux := http.NewServeMux()
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ss := ingest.NewStreamServer(n.e, nil)
	// The commit hook: where a write is counted, held or refused.
	ss.Fenced = func() bool {
		n.writes.Add(1)
		if hold := n.hold.Load(); hold != nil {
			<-*hold
		}
		return n.failAll.Load()
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ss.Serve(ln)
	}()
	n.bin = ln.Addr().String()
	n.kill = func() {
		n.srv.Close()
		ln.Close()
		ss.Close()
		<-served
	}
	tb.Cleanup(func() { n.kill(); n.e.Close() })
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

// fastClient is the tests' client template: three attempts, so a push
// that keeps failing gives up after the schedule's first two waits.
var fastClient = ingest.HTTPClientConfig{
	MaxAttempts: 3,
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
			{Name: "n0", URL: nodes[0].srv.URL, BinAddr: nodes[0].bin},
			{Name: "n1", URL: nodes[1].srv.URL, BinAddr: nodes[1].bin},
			{Name: "n2", URL: nodes[2].srv.URL, BinAddr: nodes[2].bin},
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
			{Name: "good", URL: good.srv.URL, BinAddr: good.bin},
			{Name: "bad", URL: bad.srv.URL, BinAddr: bad.bin},
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
	// The slot's upstream client gives up at the budget; what is left is
	// one round trip to the gateway and back.
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
			{Name: "n0", URL: alive.srv.URL, BinAddr: alive.bin},
			{Name: "n1", URL: dying.srv.URL, BinAddr: dying.bin, Follower: standby.srv.URL, FollowerBin: standby.bin},
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

	// Kill node 1: its listeners vanish, pushes and health checks fail.
	dying.kill()

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
// must not take the slot back down — and the push it redirects lands on
// the promoted node.
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
		Nodes:       []NodeConfig{{Name: "n0", URL: dying.srv.URL, BinAddr: dying.bin, Follower: follower.URL, FollowerBin: standby.bin}},
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

	dying.kill()
	client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
		c := fastClient
		c.BaseURL = gw.URL
		return c
	}())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recs := mkRecords(16, 5, 0)
	if err := client.Push(ctx, recs); err != nil {
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
	standby.e.Flush()
	if got, want := standby.e.Summary().Events, uint64(len(recs)); got != want {
		t.Fatalf("the promoted follower holds %d of the %d pushed records", got, want)
	}
}

// TestGatewayCloseFailsPushInFlight: the gateway's goroutines are the
// health loop and its upstream clients' readers. Close while a push sits
// in its slot's upstream redial loop must answer that request 503 at
// once — not when the slot's push budget runs out — and leave no
// goroutine behind.
func TestGatewayCloseFailsPushInFlight(t *testing.T) {
	node := newTestNode(t)
	node.failAll.Store(true)
	nodeTr, gwTr := &http.Transport{}, &http.Transport{DisableKeepAlives: true}
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	g, err := NewGateway(GatewayConfig{
		Nodes:  []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: node.bin}},
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
		if node.writes.Load() >= 1 {
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

// codecVerdictNode stands in front of a node's stream at target: while
// refuse is set it answers each connection's first frame with ERR codec,
// the verdict a StreamClient takes as final, and otherwise relays to
// target.
func codecVerdictNode(t *testing.T, target string, refuse *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer down.Close()
				if refuse.Load() {
					if _, err := wal.NewFrameReader(down).Next(); err == nil {
						_, _ = down.Write(wal.AppendFrame(nil, append([]byte{ingest.StreamFrameErr, ingest.StreamErrCodec}, "refused"...)))
					}
					return
				}
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				go func() { _, _ = io.Copy(up, down); up.Close() }()
				_, _ = io.Copy(down, up)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGatewayHTTPFrontRenewsFailedUpstream: a slot's shared upstream
// client that fails a share — on a verdict no resend can change, or
// after its node refused every resend for the push budget — is
// replaced. Once the node takes writes again the next POST is 200, and
// the records of the POST answered 503 are not resent behind it.
func TestGatewayHTTPFrontRenewsFailedUpstream(t *testing.T) {
	for _, fatal := range []bool{true, false} {
		t.Run(fmt.Sprintf("codecVerdict=%v", fatal), func(t *testing.T) {
			node := newTestNode(t)
			var refuse atomic.Bool
			bin := node.bin
			if fatal {
				bin = codecVerdictNode(t, node.bin, &refuse)
				refuse.Store(true)
			} else {
				node.failAll.Store(true)
			}
			g, err := NewGateway(GatewayConfig{
				Nodes:       []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: bin}},
				HealthEvery: 50 * time.Millisecond,
				FailAfter:   2,
				Logf:        t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			gw := httptest.NewServer(g.Handler())
			defer gw.Close()

			if err := pushBatch(gw.URL, mkRecords(16, 7, 0)); err == nil {
				t.Fatal("gateway acknowledged a batch its node refused")
			}
			refuse.Store(false)
			node.failAll.Store(false)
			recs := mkRecords(16, 7, 1)
			if err := pushBatch(gw.URL, recs); err != nil {
				t.Fatalf("push once the node takes writes again: %v", err)
			}
			node.e.Flush()
			if got, want := node.e.Summary().Events, uint64(len(recs)); got != want {
				t.Fatalf("node holds %d events, want the %d of the acknowledged push alone", got, want)
			}
		})
	}
}

// TestGatewayDeadSlotAnswersEachPushWithinBudget: concurrent POSTs to a
// dead slot that cannot fail over share its upstream client, and each
// is answered 503 within its push budget: one request's failure must not
// hand the next a fresh budget behind it.
func TestGatewayDeadSlotAnswersEachPushWithinBudget(t *testing.T) {
	node := newTestNode(t)
	node.kill()
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: node.bin}},
		HealthEvery: 250 * time.Millisecond,
		FailAfter:   2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	budget := g.pushBudget(g.nodes[0])
	const pushes = 4
	var wg sync.WaitGroup
	took := make([]time.Duration, pushes)
	errs := make([]error, pushes)
	for i := range pushes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			errs[i] = pushBatch(gw.URL, mkRecords(8, 5, i))
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	for i := range pushes {
		if errs[i] == nil {
			t.Fatalf("push %d to a dead slot was acknowledged", i)
		}
		if took[i] > budget+budget/2 {
			t.Fatalf("push %d answered after %v, past its %v push budget (all: %v)", i, took[i], budget, took)
		}
	}
	t.Logf("%d pushes answered 503 after %v (budget %v)", pushes, took, budget)
}

// TestGatewayPushEndsWithItsClient: a POST whose client hangs up while
// its share waits on a refusing node ends there, not when the slot's
// push budget runs out.
func TestGatewayPushEndsWithItsClient(t *testing.T) {
	node := newTestNode(t)
	node.failAll.Store(true)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: node.bin}},
		HealthEvery: 5 * time.Second, // a push budget of 30 s
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	posted := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, gw.URL+"/v1/ingest",
			strings.NewReader(`{"swarm_id":1,"peer_id":1,"seed":true,"online":true,"t":0}`+"\n"))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		posted <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); node.writes.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the push never reached its node")
		}
	}
	cancel()
	<-posted
	closed := make(chan struct{})
	go func() { gw.Close(); close(closed) }() // returns once every handler has
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the handler kept waiting after its client hung up")
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
			{Name: "n0", URL: alive.srv.URL, BinAddr: alive.bin},
			{Name: "n1", URL: dying.srv.URL, BinAddr: dying.bin, Follower: standby.srv.URL, FollowerBin: standby.bin},
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
	dying.kill()

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
// what it taught — a read that meets one is not a failed attempt, and a
// push, which rides the stream, meets none — and a 409 from a node
// fenced at the stamp is an *EpochConflictError.
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
	e := ingest.New(ingest.Config{Shards: 2})
	defer e.Close()
	reg := obs.NewRegistry()
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: srv.URL, BinAddr: serveBin(t, e)}},
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
	resp, err = http.Get(gw.URL + "/v1/swarm/1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read from a node one epoch ahead: %v %v", resp.Status, err)
	}
	drain(resp)
	if got := seen(); fmt.Sprint(got) != "[5 6]" {
		t.Fatalf("read stamps %q, want [5 6]: one conflict, then a re-stamped send", got)
	}
	if v, _ := reg.Value("gateway_push_failures_total"); v != 0 {
		t.Fatalf("gateway_push_failures_total = %v: a push to a node ahead is not a failure", v)
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

// gatedNode is a test node whose HTTP API is behind a memory-only
// EpochGate, with the per-swarm route and the promotion call the gateway
// uses, every request recorded. POST /v1/promote adopts its stamp and is not gated, as on a
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
// invariant: whatever the gateway sends a node over HTTP while pushes
// go by — both scatter reads, a per-swarm read, a health probe, a
// promotion, the retired leader's fence — carries a non-zero epoch, and
// the slot's epoch never decreases while all of it happens.
func TestGatewayEveryNodeRequestStamped(t *testing.T) {
	var log stampLog
	leader, leaderGate, leaderSrv := gatedNode(t, "leader", &log)
	follower, followerGate, followerSrv := gatedNode(t, "follower", &log)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: leaderSrv.URL, BinAddr: leader.bin, Follower: followerSrv.URL, FollowerBin: follower.bin}},
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

// TestGatewayStaleAnswerAfterFailover: a POST's share is in flight to a
// leader that stalls mid-commit, on an upstream connection dialed at
// epoch 1, while the health loop promotes the follower at epoch 2. When
// the leader resumes it journals the share and acknowledges it. That ACK
// is behind the slot and must not acknowledge anything: the share would
// exist only on the retired node. The upstream client resends it to the
// promoted follower, so the acknowledged push is there.
func TestGatewayStaleAnswerAfterFailover(t *testing.T) {
	var log stampLog
	leader, _, leaderSrv := gatedNode(t, "leader", &log)
	follower, _, followerSrv := gatedNode(t, "follower", &log)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: leaderSrv.URL, BinAddr: leader.bin, Follower: followerSrv.URL, FollowerBin: follower.bin}},
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
	waitFor("the push to reach the leader", func() bool { return leader.writes.Load() != 0 })
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
	// The leader did journal the share and answer it: that answer is the
	// one the gateway refused.
	waitFor("the retired leader's commit", func() bool { leader.e.Flush(); return leader.e.Summary().Events == uint64(len(recs)) })
}

// postKeyed POSTs recs to base's /v1/ingest once, under (source, seq),
// and returns the answer's status and body.
func postKeyed(t *testing.T, base, source string, seq uint64, recs []ingest.Record) (int, string) {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ingest.HeaderSource, source)
	req.Header.Set(ingest.HeaderSeq, strconv.FormatUint(seq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(answer)
}

// TestGatewayHTTPFrontCarriesWidestBatch: a POST of MaxFrameOps records
// at the codec's widest encoding — two swarms past 2^62 in turn, peers
// past 2^56, a new time each — is one a lone node takes, so the gateway
// must carry it to its node as one stream frame: 200, and the node's
// state is the lone node's.
func TestGatewayHTTPFrontCarriesWidestBatch(t *testing.T) {
	node := newTestNode(t)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: node.bin}},
		HealthEvery: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	recs := make([]ingest.Record, ingest.MaxFrameOps)
	ops := make([]ingest.Op, len(recs))
	for i := range recs {
		recs[i] = ingest.Record{SwarmID: 1<<62 + i%2, PeerID: 1<<56 + uint64(i%2), Online: i/2%2 == 0, Time: float64(i)}
		ops[i] = ingest.EventOp(recs[i])
	}
	if code, body := postKeyed(t, gw.URL, "mon-widest", 1, recs); code != http.StatusOK {
		t.Fatalf("POST of %d widest records through the gateway: %d %s", len(recs), code, body)
	}
	lone := ingest.New(ingest.Config{Shards: 2, BatchSize: 16})
	defer lone.Close()
	if _, err := lone.SubmitKeyed("mon-widest", 1, ops); err != nil {
		t.Fatal(err)
	}
	lone.Flush()
	want := httptest.NewRecorder()
	ingest.WriteState(want, lone.Summary())
	if got := fetchBody(t, gw.URL+"/v1/state"); !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatalf("the gateway's /v1/state is not the lone node's\n--- gateway ---\n%s--- lone ---\n%s", got, want.Body.Bytes())
	}
}

// TestGatewayHTTPFrontJournalsSubmitKeyedBytes: a keyed POST through the
// gateway makes each node journal exactly EncodeFrame(source, seq,
// share) — the bytes a lone node's SubmitKeyed journals for that share —
// so a write's journal bytes do not depend on which front it came in by.
func TestGatewayHTTPFrontJournalsSubmitKeyedBytes(t *testing.T) {
	open := func() *ingest.Engine {
		e, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	journal := func(e *ingest.Engine) [][]byte {
		t.Helper()
		var frames [][]byte
		if err := e.WAL().Replay(1, func(_ uint64, payload []byte) error {
			frames = append(frames, bytes.Clone(payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return frames
	}
	nodes := []*ingest.Engine{open(), open()}
	cfgs := make([]NodeConfig, len(nodes))
	for i, e := range nodes {
		cfgs[i] = NodeConfig{Name: fmt.Sprintf("n%d", i), URL: "http://127.0.0.1:1", BinAddr: serveBin(t, e)} // no HTTP call is made
	}
	g, err := NewGateway(GatewayConfig{Nodes: cfgs, HealthEvery: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	recs := mkRecords(200, 61, 3)
	if code, body := postKeyed(t, gw.URL, "mon-journal", 9, recs); code != http.StatusOK {
		t.Fatalf("keyed POST through the gateway: %d %s", code, body)
	}
	shares := make([][]ingest.Op, len(nodes))
	for _, rec := range recs {
		slot := g.Ring().Node(rec.SwarmID)
		shares[slot] = append(shares[slot], ingest.EventOp(rec))
	}
	for i, e := range nodes {
		if len(shares[i]) == 0 {
			t.Fatalf("node %d owns none of the records: the test needs both slots", i)
		}
		want, err := ingest.EncodeFrame(nil, "mon-journal", 9, shares[i])
		if err != nil {
			t.Fatal(err)
		}
		lone := open()
		if _, err := lone.SubmitKeyed("mon-journal", 9, shares[i]); err != nil {
			t.Fatal(err)
		}
		if got := journal(lone); len(got) != 1 || !bytes.Equal(got[0], want) {
			t.Fatalf("a lone node's SubmitKeyed journaled %d frames, not EncodeFrame's %d bytes", len(got), len(want))
		}
		if got := journal(e); len(got) != 1 || !bytes.Equal(got[0], want) {
			t.Fatalf("node %d journaled %d frames, not the one frame of %d bytes SubmitKeyed journals", i, len(got), len(want))
		}
	}
}

// TestGatewayFollowerNeedsBinAddr: a follower without a binary address
// is refused — promoted, it would leave the slot's writes going to the
// retired leader's stream, which answers until something fences it —
// and a failover moves the slot's writes to the follower's stream even
// when only the leader's HTTP is cut, so the leader is never fenced.
func TestGatewayFollowerNeedsBinAddr(t *testing.T) {
	leader, follower := newTestNode(t), newTestNode(t)
	if _, err := NewGateway(GatewayConfig{
		Nodes: []NodeConfig{{Name: "n0", URL: leader.srv.URL, BinAddr: leader.bin, Follower: follower.srv.URL}},
	}); err == nil {
		t.Fatal("NewGateway accepted a follower without a binary address")
	}

	fnet := faultnet.New(faultnet.Config{Seed: 1})
	g, err := NewGateway(GatewayConfig{
		Nodes: []NodeConfig{{
			Name: "n0", URL: leader.srv.URL, BinAddr: leader.bin,
			Follower: follower.srv.URL, FollowerBin: follower.bin,
		}},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
		Client:      &http.Client{Transport: fnet.RoundTripper(nil)},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = g.ServeStream(ln)
	}()
	defer func() { ln.Close(); <-served }()

	fnet.KillHost(strings.TrimPrefix(leader.srv.URL, "http://")) // HTTP only: the stream still answers
	for deadline := time.Now().Add(10 * time.Second); g.NodeURL(0) != follower.srv.URL; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower was never promoted")
		}
	}
	recs := mkRecords(64, 13, 0)
	mon := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: ln.Addr().String(), BatchSize: 16})
	defer mon.Abandon()
	lone := ingest.New(ingest.Config{Shards: 2, BatchSize: 16})
	defer lone.Close()
	for _, rec := range recs {
		if err := mon.Observe(rec); err != nil {
			t.Fatal(err)
		}
		if err := lone.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Flush(); err != nil {
		t.Fatalf("stream after the failover: %v", err)
	}
	lone.Flush()
	want := httptest.NewRecorder()
	ingest.WriteState(want, lone.Summary())
	if got := fetchBody(t, follower.srv.URL+"/v1/state"); !bytes.Equal(got, want.Body.Bytes()) {
		leader.e.Flush()
		t.Fatalf("the promoted follower's /v1/state is not the frames' (%d events on the retired leader)\n--- follower ---\n%s--- frames ---\n%s", leader.e.Summary().Events, got, want.Body.Bytes())
	}
}
