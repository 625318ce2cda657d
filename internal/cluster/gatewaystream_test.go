package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
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
	return &streamNode{e: e, srv: srv, binAddr: serveBin(t, e)}
}

// serveBin serves e's binary stream protocol on a loopback listener
// until the test ends, returning its address.
func serveBin(t *testing.T, e *ingest.Engine) string {
	t.Helper()
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
	return ln.Addr().String()
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

// series reads one of an engine's counts from its registry, summed over
// label sets.
func series(e *ingest.Engine, name string) uint64 { return uint64(e.Registry().Sum(name)) }

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
		if err := lone.Submit([]ingest.Op{ingest.CensusOp(sn)}); err != nil {
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
		if _, err := c.PushFrame(frame); err != nil {
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
		applied += series(n.e, "ingest_records_total")
		deduped += series(n.e, "ingest_deduped_total")
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
		applied2 += series(n.e, "ingest_records_total")
		deduped2 += series(n.e, "ingest_deduped_total")
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

// holdProxy relays TCP connections to target until the test ends:
// bytes toward target pass at once, bytes back are held until release is
// closed — a leader whose answers are stuck on the way to the gateway.
func holdProxy(t *testing.T, target string, release <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(up, down)
			}()
			go func() {
				defer wg.Done()
				select {
				case <-release:
					_, _ = io.Copy(down, up)
				case <-done:
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGatewayStreamStaleAckAfterFailover is the stream front's
// stale-answer test: the leader applies a forwarded frame at epoch 1,
// its ACK is held on the way back while the health loop promotes the
// follower at epoch 2, and then it arrives. That ACK is behind the slot
// and must not acknowledge anything — the frame may exist only on the
// retired node. The forwarder redials the promoted follower and resends
// the frame under its key, so the frame the monitor sees acknowledged is
// there.
func TestGatewayStreamStaleAckAfterFailover(t *testing.T) {
	var log stampLog
	leader, _, leaderSrv := gatedNode(t, "leader", &log)
	follower, _, followerSrv := gatedNode(t, "follower", &log)
	release := make(chan struct{})
	g, err := NewGateway(GatewayConfig{
		Nodes: []NodeConfig{{
			Name: "n0", URL: leaderSrv.URL, Follower: followerSrv.URL,
			BinAddr: holdProxy(t, serveBin(t, leader.e), release), FollowerBin: serveBin(t, follower.e),
		}},
		HealthEvery: 20 * time.Millisecond,
		FailAfter:   2,
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

	recs := mkRecords(16, 7, 0)
	mon := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: ln.Addr().String(), BatchSize: len(recs)})
	defer mon.Abandon()
	for _, rec := range recs {
		if err := mon.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan error, 1)
	go func() { flushed <- mon.Flush() }()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the leader to apply the frame", func() bool { return leader.e.Summary().Events == uint64(len(recs)) })
	leader.healthy.Store(false)
	waitFor("the promotion", func() bool { return g.NodeURL(0) == followerSrv.URL })
	close(release) // the leader's ACK, from epoch 1, reaches the gateway

	if err := <-flushed; err != nil {
		t.Fatalf("monitor flush across the failover: %v", err)
	}
	if got, want := follower.e.Summary().Events, uint64(len(recs)); got != want {
		t.Fatalf("the promoted node holds %d of the %d acknowledged records: the gateway took a retired leader's ACK", got, want)
	}
}

// TestGatewayStreamJournalsSubmitKeyedBytes is the stream front's twin
// of TestGatewayHTTPFrontJournalsSubmitKeyedBytes: a keyed frame split
// across two durable nodes makes each journal exactly EncodeFrame(source,
// seq, share), so a share's journal bytes do not depend on which front
// it came in by, nor on its being encoded straight into an envelope.
func TestGatewayStreamJournalsSubmitKeyedBytes(t *testing.T) {
	nodes := []*ingest.Engine{openDurable(t), openDurable(t)}
	cfgs := make([]NodeConfig, len(nodes))
	for i, e := range nodes {
		cfgs[i] = NodeConfig{Name: fmt.Sprintf("n%d", i), URL: "http://127.0.0.1:1", BinAddr: serveBin(t, e)} // no HTTP call is made
	}
	g, err := NewGateway(GatewayConfig{Nodes: cfgs, HealthEvery: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = g.ServeStream(ln)
	}()
	defer func() { ln.Close(); g.Close(); <-served }()

	recs := mkRecords(200, 61, 3)
	ops := make([]ingest.Op, len(recs))
	for i, rec := range recs {
		ops[i] = ingest.EventOp(rec)
	}
	frame, err := ingest.EncodeFrame(nil, "mon-journal", 9, ops)
	if err != nil {
		t.Fatal(err)
	}
	mon := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: ln.Addr().String(), Source: "mon-journal"})
	if _, err := mon.PushFrame(frame); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatalf("keyed frame through the gateway's stream front: %v", err)
	}
	checkJournaledShares(t, g, nodes, "mon-journal", 9, ops)
}

// ackNode is an upstream that acknowledges each DATA frame as it arrives
// and allocates nothing per frame doing so, so an allocation count taken
// around the gateway's forwarding is the forwarder's own. It returns its
// address; it serves until the test ends.
func ackNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				buf := make([]byte, 64<<10)
				var ack []byte
				var payload [9]byte
				payload[0] = ingest.StreamFrameAck
				for n := uint64(1); ; n++ {
					if _, err := io.ReadFull(conn, buf[:wal.FrameHeaderSize]); err != nil {
						return
					}
					size := int(binary.LittleEndian.Uint32(buf))
					if size+1 > len(buf) {
						buf = make([]byte, size+1)
					}
					if _, err := io.ReadFull(conn, buf[:size]); err != nil || buf[0] != ingest.StreamFrameData {
						return
					}
					binary.LittleEndian.PutUint64(payload[1:], n)
					ack = wal.AppendFrame(ack[:0], payload[:])
					if _, err := conn.Write(ack); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// gatewayFrame is a keyed frame of n event ops that spans both slots of
// g's two-node ring: runs of eight observations of one swarm, over
// swarms enough to reach every slot — a monitor's frame, in shape.
func gatewayFrame(t testing.TB, g *Gateway, source string, seq uint64, n int) []byte {
	t.Helper()
	ops := make([]ingest.Op, n)
	slots := make(map[int]bool)
	for i := range ops {
		swarm := i / 8 * 31 % 2000
		slots[g.Ring().Node(swarm)] = true
		ops[i] = ingest.EventOp(ingest.Record{SwarmID: swarm, PeerID: uint64(i%8 + 1), Seed: i%3 == 0, Online: i%4 != 3, Time: float64(i) / 64})
	}
	if len(slots) != g.Ring().Nodes() {
		t.Fatalf("the frame reaches %d of %d slots", len(slots), g.Ring().Nodes())
	}
	frame, err := ingest.EncodeFrame(nil, source, seq, ops)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestGatewayStreamForwardAllocs is the stream front's allocation guard:
// forwarding a 512-op keyed frame that spans two slots allocates the two
// share envelopes the upstream clients keep for resend and a small
// constant (the frame's source string, the ack job's targets), whatever
// the frame's size — the decode buffer and the routing scratch are the
// connection's. It logs the count per frame.
func TestGatewayStreamForwardAllocs(t *testing.T) {
	g, err := NewGateway(GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "n0", URL: "http://127.0.0.1:1", BinAddr: ackNode(t)}, // no HTTP call is made
			{Name: "n1", URL: "http://127.0.0.1:1", BinAddr: ackNode(t)},
		},
		HealthEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	down, mon := net.Pipe()
	defer mon.Close()
	go func() { _, _ = io.Copy(io.Discard, mon) }() // the monitor reads its ACKs
	f := g.newStreamForwarder(down)
	go f.relay()
	defer func() { close(f.acks); <-f.done; f.abandon() }()

	const shares, slack = 2, 3
	frames := make([][]byte, 0, 256)
	for seq := uint64(1); len(frames) < cap(frames); seq++ {
		frames = append(frames, gatewayFrame(t, g, "mon-allocs", seq, 512))
	}
	next := 0
	allocs := testing.AllocsPerRun(cap(frames)-1, func() {
		if err := f.forward(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("the forwarder allocates %.1f times per 512-op frame over two slots (bound %d: %d share envelopes + %d)", allocs, shares+slack, shares, slack)
	if allocs > shares+slack {
		t.Fatalf("forwarding a frame allocates %.1f times, more than its %d share envelopes + %d", allocs, shares, slack)
	}
}
