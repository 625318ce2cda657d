package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
)

// streamNode is one in-memory availd stand-in: an engine serving both
// the binary stream protocol and the read + /v1/healthz routes the
// gateway needs.
type streamNode struct {
	e       *ingest.Engine
	srv     *httptest.Server
	binAddr string
}

func newStreamNode(t *testing.T) *streamNode {
	t.Helper()
	e := ingest.New(ingest.Config{Shards: 2})
	t.Cleanup(e.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	})
	// availd's real read handlers, behind a flush so a snapshot-path read
	// sees every acked frame.
	reads := http.NewServeMux()
	ingest.RegisterReadHandlers(reads, e)
	mux.HandleFunc("GET /v1/", func(w http.ResponseWriter, r *http.Request) {
		e.Flush()
		reads.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := ingest.NewStreamServer(e, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ss.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		ss.Close()
		<-done
	})
	return &streamNode{e: e, srv: srv, binAddr: ln.Addr().String()}
}

// streamGateway wires nodes into a gateway with its binary stream
// listener up, returning the gateway, its HTTP test server and the
// stream address.
func streamGateway(t *testing.T, nodes []*streamNode) (*Gateway, *httptest.Server, string) {
	t.Helper()
	cfgs := make([]NodeConfig, len(nodes))
	for i, n := range nodes {
		cfgs[i] = NodeConfig{Name: fmt.Sprintf("n%d", i), URL: n.srv.URL, BinAddr: n.binAddr}
	}
	g, err := NewGateway(GatewayConfig{
		Nodes:       cfgs,
		HealthEvery: time.Hour, // no failover noise in these tests
		Metrics:     obs.NewRegistry(),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = g.ServeStream(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		g.Close()
	})
	return g, srv, ln.Addr().String()
}

func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// TestGatewayStreamParity pushes one op stream through the gateway's
// binary stream front — frames straddling slots, so both the verbatim
// single-slot path and the split-and-re-key path run — and requires the
// gateway's merged /v1/summary, /v1/availability/cdf and — over the
// census ops the same stream carries — /v1/bundling/summary to be
// byte-identical to a lone engine that saw the whole stream.
func TestGatewayStreamParity(t *testing.T) {
	nodes := []*streamNode{newStreamNode(t), newStreamNode(t), newStreamNode(t)}
	_, gwSrv, streamAddr := streamGateway(t, nodes)

	lone := ingest.New(ingest.Config{Shards: 2})
	defer lone.Close()

	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: streamAddr, BatchSize: 64})
	for swarm := 0; swarm < 150; swarm++ {
		for k := 0; k < 8; k++ {
			rec := ingest.Record{
				SwarmID: swarm,
				PeerID:  uint64(k + 1),
				Seed:    k%3 == 0,
				Online:  k%4 != 3,
				Time:    float64(k) / 4,
			}
			if err := c.Observe(rec); err != nil {
				t.Fatal(err)
			}
			if err := lone.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sn := range trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 17, NumSwarms: 120}) {
		if err := c.Put(ingest.CensusOp(sn)); err != nil {
			t.Fatal(err)
		}
		if err := lone.ObserveCensus(sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	lone.Flush()

	loneSummary := httptest.NewRecorder()
	ingest.WriteSummary(loneSummary, lone.Summary())
	qs, err := ingest.ParseQuantiles("")
	if err != nil {
		t.Fatal(err)
	}
	loneCDF := httptest.NewRecorder()
	ingest.WriteCDF(loneCDF, lone.Summary(), qs)

	if got := fetchBody(t, gwSrv.URL+"/v1/summary"); !bytes.Equal(got, loneSummary.Body.Bytes()) {
		t.Fatalf("merged summary diverged from lone engine\n--- gateway ---\n%s\n--- lone ---\n%s",
			got, loneSummary.Body.Bytes())
	}
	if got := fetchBody(t, gwSrv.URL+"/v1/availability/cdf"); !bytes.Equal(got, loneCDF.Body.Bytes()) {
		t.Fatalf("merged cdf diverged from lone engine\n--- gateway ---\n%s\n--- lone ---\n%s",
			got, loneCDF.Body.Bytes())
	}

	loneBundling := httptest.NewRecorder()
	ingest.WriteBundling(loneBundling, lone.Summary())
	if lone.Summary().CensusSwarms == 0 {
		t.Fatal("reference engine holds no census swarms")
	}
	for _, q := range []string{"", "?consistent=1"} {
		if got := fetchBody(t, gwSrv.URL+"/v1/bundling/summary"+q); !bytes.Equal(got, loneBundling.Body.Bytes()) {
			t.Fatalf("merged bundling summary%s diverged from lone engine\n--- gateway ---\n%s\n--- lone ---\n%s",
				q, got, loneBundling.Body.Bytes())
		}
	}
	// ETag/304 like its siblings.
	code, etag, _ := getTagged(t, gwSrv.URL+"/v1/bundling/summary", "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("bundling summary: status %d etag %q, want 200 with a validator", code, etag)
	}
	if code, _, body := getTagged(t, gwSrv.URL+"/v1/bundling/summary", etag); code != http.StatusNotModified || body != "" {
		t.Fatalf("bundling revalidation: status %d with %d body bytes, want a bare 304", code, len(body))
	}
}

// TestGatewayStreamKeyedReplayForwardsVerbatim replays a single-slot
// keyed frame through the gateway twice. The forward is verbatim —
// same bytes, same key — so the owning node's dedup window absorbs the
// replay: no node re-applies, and the summary is unchanged.
func TestGatewayStreamKeyedReplayForwardsVerbatim(t *testing.T) {
	nodes := []*streamNode{newStreamNode(t), newStreamNode(t)}
	g, gwSrv, streamAddr := streamGateway(t, nodes)

	// A frame whose ops all live on one slot, keyed by the monitor.
	slotOf := func(swarm int) int { return g.Ring().Node(swarm) }
	wantSlot := slotOf(1)
	var ops []ingest.Op
	for swarm := 1; len(ops) < 6; swarm++ {
		if slotOf(swarm) != wantSlot {
			continue
		}
		ops = append(ops,
			ingest.EventOp(ingest.Record{SwarmID: swarm, PeerID: 1, Seed: true, Online: true, Time: 0.5}),
			ingest.EventOp(ingest.Record{SwarmID: swarm, PeerID: 2, Online: true, Time: 1.5}),
		)
	}
	frame, err := ingest.EncodeFrame(nil, "mon-verbatim", 7, ops)
	if err != nil {
		t.Fatal(err)
	}

	push := func() {
		c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: streamAddr, Source: "mon-verbatim"})
		if err := c.PushFrame(frame); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	push()
	base := fetchBody(t, gwSrv.URL+"/v1/summary")
	var applied, deduped uint64
	for _, n := range nodes {
		m := n.e.Metrics()
		applied += m.Records
		deduped += m.Deduped
	}
	if want := uint64(len(ops)); applied != want {
		t.Fatalf("nodes applied %d records, want %d", applied, want)
	}
	if deduped != 0 {
		t.Fatalf("unexpected dedups before replay: %d", deduped)
	}

	push() // the lost-ack retry
	var applied2, deduped2 uint64
	for _, n := range nodes {
		m := n.e.Metrics()
		applied2 += m.Records
		deduped2 += m.Deduped
	}
	if applied2 != applied {
		t.Fatalf("replay re-applied: %d -> %d records", applied, applied2)
	}
	if want := uint64(len(ops)); deduped2 != want {
		t.Fatalf("replay deduped %d records, want %d", deduped2, want)
	}
	if got := fetchBody(t, gwSrv.URL+"/v1/summary"); !bytes.Equal(got, base) {
		t.Fatal("summary changed across a deduplicated replay")
	}
}

// TestGatewayCloseEndsStreams: closing the listener and the gateway —
// availgw's shutdown order — ends the stream front. ServeStream returns,
// a connected client's next frame is not forwarded (its Flush fails: the
// connection is cut and there is nothing to redial), the node's event
// count does not move, and no goroutine of the gateway's outlives it.
func TestGatewayCloseEndsStreams(t *testing.T) {
	node := newStreamNode(t)
	before := runtime.NumGoroutine()

	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: node.binAddr}},
		HealthEvery: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- g.ServeStream(ln) }()

	c := ingest.NewStreamClient(ingest.StreamClientConfig{
		Addr: ln.Addr().String(), Source: "close-test",
		RetryFor: 10 * time.Millisecond,
	})
	events := func() uint64 {
		node.e.Flush()
		return node.e.Summary().Events
	}
	rec := ingest.Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true}
	if err := c.Observe(rec); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush through the open gateway: %v", err)
	}
	if got := events(); got != 1 {
		t.Fatalf("node holds %d events after the first frame, want 1", got)
	}

	ln.Close()
	g.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeStream: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("ServeStream still running after listener and gateway closed")
	}

	rec.PeerID, rec.Time = 2, 0.5
	err = c.Observe(rec)
	if err == nil {
		err = c.Flush()
	}
	if err == nil {
		t.Fatal("a frame pushed after Close was acknowledged: the closed gateway still forwards")
	}
	if got := events(); got != 1 {
		t.Fatalf("node holds %d events after the gateway closed, want 1", got)
	}
	_ = c.Close()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before NewGateway, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestGatewayCloseAbandonsDeadUpstream: with a slot's upstream down, a
// stream handler sits in its upstream client's redial loop — for the
// slot's whole push budget, here hours. Closing the listener and the
// gateway must end it within a second anyway, abandoning the unsettled
// frame (the monitor's to resend under its key), and leave no
// goroutine behind.
func TestGatewayCloseAbandonsDeadUpstream(t *testing.T) {
	node := newStreamNode(t)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // the slot's binary ingest refuses every dial
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: node.srv.URL, BinAddr: deadAddr}},
		HealthEvery: time.Hour,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- g.ServeStream(ln) }()

	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: ln.Addr().String(), Source: "dead-upstream", BatchSize: 1})
	defer c.Abandon()
	if err := c.Observe(ingest.Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if v, _ := reg.Value("gateway_stream_conns_total"); v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the gateway never accepted the stream")
		}
	}
	time.Sleep(200 * time.Millisecond) // the frame is in the upstream client's redial loop

	start := time.Now()
	ln.Close()
	g.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeStream: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a stream handler was still waiting on the dead upstream 1s after Close")
	}
	t.Logf("stream front ended %v after Close", time.Since(start))
	if c.Acked() != 0 {
		t.Fatal("a frame that never reached a node was acknowledged")
	}
	c.Abandon()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before NewGateway, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
