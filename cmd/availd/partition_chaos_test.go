package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/faultnet"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// streamCutter relays the gateway's stream connections to a leader's
// binary ingest and plays the two faults of the write hop: the lost ACK
// — for an armed idempotency key the leader journals and applies the
// frame, but the ACK that covers it never reaches the gateway, whose
// connection is cut — and the partition: while down, every relayed
// connection is cut and every new one refused.
type streamCutter struct {
	target string
	mu     sync.Mutex
	armed  map[string]bool
	drops  int
	down   bool
	conns  []net.Conn
}

// listen starts relaying on a loopback listener until the test ends and
// returns its address.
func (c *streamCutter) listen(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); c.partition(true) })
	go func() {
		for {
			gw, err := ln.Accept()
			if err != nil {
				return
			}
			node, err := net.Dial("tcp", c.target)
			c.mu.Lock()
			if err != nil || c.down {
				c.mu.Unlock()
				gw.Close()
				if node != nil {
					node.Close()
				}
				continue
			}
			c.conns = append(c.conns, gw, node)
			c.mu.Unlock()
			go c.relay(gw, node)
		}
	}()
	return ln.Addr().String()
}

func (c *streamCutter) arm(source string, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed = make(map[string]bool)
	}
	c.armed[source+"|"+strconv.FormatUint(seq, 10)] = true
}

// take disarms and counts the key when it is armed.
func (c *streamCutter) take(source string, seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := source + "|" + strconv.FormatUint(seq, 10)
	if !c.armed[key] {
		return false
	}
	delete(c.armed, key)
	c.drops++
	return true
}

func (c *streamCutter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drops
}

// partition cuts every relayed connection and refuses new ones (down) or
// lets them through again.
func (c *streamCutter) partition(down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = down
	if down {
		for _, conn := range c.conns {
			conn.Close()
		}
		c.conns = nil
	}
}

// relay copies frames both ways. dropAt is the DATA frame, counted on
// this connection, whose ACK is lost: an ACK covering it cuts the
// connection instead of reaching the gateway.
func (c *streamCutter) relay(gw, node net.Conn) {
	defer gw.Close()
	defer node.Close()
	var dropAt atomic.Uint64
	go func() {
		defer node.Close()
		fr := wal.NewFrameReader(bufio.NewReader(gw))
		for n := uint64(0); ; {
			payload, err := fr.Next()
			if err != nil {
				return
			}
			if payload[0] == ingest.StreamFrameData {
				n++
				if source, seq, _, err := ingest.DecodeFrame(payload[1:]); err == nil && c.take(source, seq) {
					dropAt.Store(n)
				}
			}
			if _, err := node.Write(wal.AppendFrame(nil, payload)); err != nil {
				return
			}
		}
	}()
	fr := wal.NewFrameReader(bufio.NewReader(node))
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		if at := dropAt.Load(); at != 0 && payload[0] == ingest.StreamFrameAck && binary.LittleEndian.Uint64(payload[1:]) >= at {
			return
		}
		if _, err := gw.Write(wal.AppendFrame(nil, payload)); err != nil {
			return
		}
	}
}

// TestPartitionChaosFailover is the split-brain acceptance test: an
// asymmetric partition cuts the gateway off from slot 0's leader — its
// HTTP API through the fault network, its stream through a cutter —
// while
// the leader's follower (on clean transports) keeps shipping its WAL.
// The gateway promotes the follower under epoch 2 mid-campaign; the
// old leader stays alive, takes a zombie write, and is fenced the
// moment the partition heals. The verdict: zero acked-record loss,
// zero duplicate applies, post-fence writes rejected with 409, and the
// merged cluster answers byte-identical to a single engine that saw
// the acked ledger exactly once.
func TestPartitionChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("partition chaos harness")
	}
	fnet := faultnet.New(faultnet.Config{Seed: 7})
	faultHTTP := &http.Client{Transport: fnet.RoundTripper(nil)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Leaders: durable engines behind the real availd handler and stream
	// (epoch gate included), as in-process listeners the fault layer and
	// the cutter can cut.
	mkLeader := func(dir string) (*ingest.Engine, http.Handler, string) {
		e, _, err := ingest.OpenDurable(
			ingest.Config{Shards: 2, BatchSize: 32},
			ingest.DurabilityConfig{Dir: dir, Fsync: wal.SyncNone},
		)
		if err != nil {
			t.Fatal(err)
		}
		gate, err := cluster.OpenEpochGate(dir, e.Registry(), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		s := &server{engine: e, opts: options{dataDir: dir}, gate: gate}
		return e, s.handler(), serveStream(t, e, gate.Fenced)
	}
	dir0 := t.TempDir()
	e0, h0, bin0 := mkLeader(dir0)
	defer e0.Close()
	cutter := &streamCutter{target: bin0}
	leader0 := httptest.NewServer(h0)
	defer leader0.Close()
	e1, h1, bin1 := mkLeader(t.TempDir())
	defer e1.Close()
	leader1 := httptest.NewServer(h1)
	defer leader1.Close()

	// Slot 0's follower: a real standby serve on clean transports, so it
	// keeps shipping the leader's WAL through the gateway-side partition
	// — the asymmetry that makes promotion lossless.
	fready, fbinReady := make(chan net.Addr, 1), make(chan net.Addr, 1)
	fdone := make(chan error, 1)
	go func() {
		fdone <- serve(ctx, nil, options{
			listen:     "127.0.0.1:0",
			ingestBin:  "127.0.0.1:0",
			binReady:   fbinReady,
			dataDir:    t.TempDir(),
			follow:     leader0.URL,
			followPoll: 20 * time.Millisecond,
			shards:     2,
			batch:      32,
		}, fready, nil)
	}()
	var fAddr net.Addr
	select {
	case fAddr = <-fready:
	case err := <-fdone:
		t.Fatalf("follower exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("follower never became ready")
	}
	followerURL, followerBin := "http://"+fAddr.String(), (<-fbinReady).String()

	// The gateway reaches the nodes only through the fault network and,
	// for slot 0's writes, the cutter.
	reg := obs.NewRegistry()
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes: []cluster.NodeConfig{
			{Name: "slot0", URL: leader0.URL, BinAddr: cutter.listen(t), Follower: followerURL, FollowerBin: followerBin},
			{Name: "slot1", URL: leader1.URL, BinAddr: bin1},
		},
		HealthEvery:    50 * time.Millisecond,
		FailAfter:      2,
		ProbeTimeout:   250 * time.Millisecond,
		PromoteTimeout: 10 * time.Second,
		Client:         faultHTTP,
		Metrics:        reg,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	client := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		BaseURL:     gw.URL,
		Source:      "campaign",
		MaxAttempts: 6,
	})

	const (
		perBatch = 40
		swarms   = 97
	)
	var ledger []ingest.Record
	mkBatch := func(salt int) []ingest.Record {
		recs := make([]ingest.Record, perBatch)
		for i := range recs {
			recs[i] = ingest.Record{
				SwarmID: (salt*perBatch + i) % swarms,
				PeerID:  uint64(salt%5 + 1),
				Seed:    i%3 != 2,
				Online:  (salt+i)%2 == 0,
				Time:    float64(salt*100+i) / 50,
			}
		}
		return recs
	}
	push := func(salt int) {
		t.Helper()
		recs := mkBatch(salt)
		pushCtx, pushCancel := context.WithTimeout(ctx, 60*time.Second)
		defer pushCancel()
		if err := client.Push(pushCtx, recs); err != nil {
			t.Fatalf("push %d: %v", salt, err)
		}
		ledger = append(ledger, recs...)
	}

	// Phase A: healthy cluster, with one lost ack. The client's third
	// Push carries key ("campaign", 3); slot 0 journals its share, its
	// ack is lost, and the gateway's resend of the same key must dedup
	// there.
	cutter.arm(client.Source(), 3)
	for salt := 0; salt < 6; salt++ {
		push(salt)
	}
	if cutter.count() != 1 {
		t.Fatalf("injected %d ack losses, want 1", cutter.count())
	}
	if d := e0.Registry().Sum("ingest_deduped_total"); d == 0 {
		t.Fatal("retry of the dropped-ack batch was not deduplicated on the leader")
	} else {
		t.Logf("leader 0 deduplicated %.0f records from the lost-ack retry", d)
	}

	// A keyed probe pushed straight to leader 0: in the ledger once. Its
	// swarms are homed on slot 0 and disjoint from the campaign's, so
	// direct delivery does not split a swarm across nodes.
	probe := make([]ingest.Record, perBatch)
	for i, id := 0, 200; i < perBatch; id++ {
		if g.Ring().Node(id) != 0 {
			continue
		}
		probe[i] = ingest.Record{SwarmID: id, PeerID: uint64(i%4 + 1), Seed: i%2 == 0, Online: i%3 != 0, Time: float64(i)}
		i++
	}
	direct0 := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		BaseURL:     leader0.URL,
		Source:      "probe", // its first push is ("probe", 1)
		MaxAttempts: 3,
	})
	if err := direct0.Push(ctx, probe); err != nil {
		t.Fatalf("probe push: %v", err)
	}
	ledger = append(ledger, probe...)

	// Quiesce: the follower must hold everything leader 0 acked before
	// the partition, or promotion would lose acknowledged records.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := walStatus(leader0.URL)
		if err != nil {
			t.Fatalf("leader 0 wal status: %v", err)
		}
		var fst struct {
			Shipped uint64 `json:"shipped"`
		}
		if err := fetchJSON(followerURL+"/v1/follower/status", &fst); err != nil {
			t.Fatalf("follower status: %v", err)
		}
		if fst.Shipped == st.LastSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, leader at %d", fst.Shipped, st.LastSeq)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase B: asymmetric partition — the gateway loses leader 0, the
	// follower (clean transport) does not. The campaign keeps going; the
	// first push below rides through the promotion.
	leader0Host := strings.TrimPrefix(leader0.URL, "http://")
	fnet.KillHost(leader0Host)
	cutter.partition(true)
	for salt := 6; salt < 12; salt++ {
		push(salt)
	}

	var cl struct {
		Nodes []struct {
			Promoted bool   `json:"promoted"`
			URL      string `json:"url"`
			Epoch    uint64 `json:"epoch"`
		} `json:"nodes"`
	}
	if err := fetchJSON(gw.URL+"/v1/cluster", &cl); err != nil {
		t.Fatal(err)
	}
	if !cl.Nodes[0].Promoted || cl.Nodes[0].URL != followerURL || cl.Nodes[0].Epoch != 2 {
		t.Fatalf("slot 0 after partition: %+v, want promoted to %s at epoch 2", cl.Nodes[0], followerURL)
	}

	// Exactly-once across the failover: the probe key was journaled on
	// leader 0 and its dedup window travelled the WAL ship, so a retry
	// against the promoted follower must be deduplicated, not re-applied.
	directF := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		BaseURL:     followerURL,
		Source:      "probe", // its first push is ("probe", 1)
		MaxAttempts: 3,
	})
	if err := directF.Push(ctx, probe); err != nil {
		t.Fatalf("probe retry against promoted follower: %v", err)
	}
	fseries := scrapeMetrics(t, fAddr)
	if d := fseries["ingest_deduped_total"]; d < perBatch {
		t.Fatalf("promoted follower deduplicated %v records, want >= %d — the dedup window did not survive the WAL ship", d, perBatch)
	}
	if e := fseries["cluster_epoch"]; e != 2 {
		t.Fatalf("promoted follower at cluster_epoch %v, want 2", e)
	}

	// The zombie: leader 0 is partitioned from the gateway but alive,
	// and a confused monitor writes to it directly (clean transport).
	// The write is accepted — the node cannot know yet — but the record
	// is NOT acked cluster state and must never appear in merged reads.
	zombie := bytes.Buffer{}
	enc := json.NewEncoder(&zombie)
	for i := 0; i < 10; i++ {
		if err := enc.Encode(ingest.Record{SwarmID: 9000 + i, PeerID: 1, Seed: true, Online: true}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(leader0.URL+"/v1/ingest", "application/json", bytes.NewReader(zombie.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zombie write before fencing: %d, want 200 (the node can't know yet)", resp.StatusCode)
	}

	// Phase C: heal. The gateway's health loop fences the retired leader
	// with an epoch-2 stamp; from then on even direct writes are 409.
	fnet.RestoreHost(leader0Host)
	cutter.partition(false)
	deadline = time.Now().Add(15 * time.Second)
	for {
		if v, ok := e0.Registry().Value("cluster_fenced_requests_total"); ok && v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retired leader was never fenced after the partition healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v, _ := e0.Registry().Value("cluster_epoch"); v != 2 {
		t.Fatalf("fenced leader at cluster_epoch %v, want 2 (demoted by the successor epoch)", v)
	}
	resp, err = http.Post(leader0.URL+"/v1/ingest", "application/json", bytes.NewReader(zombie.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-fence direct write: %d, want 409", resp.StatusCode)
	}
	if code, state := getHealth(t, leader0.URL); code != http.StatusServiceUnavailable || state != "fenced" {
		t.Fatalf("fenced leader healthz: %d %q, want 503 fenced", code, state)
	}
	if v, _ := reg.Value("gateway_slot_epoch", obs.L("node", "slot0")); v != 2 {
		t.Fatalf("gateway believes slot 0 epoch %v, want 2", v)
	}

	// Verdict: the merged cluster answers equal a single engine fed the
	// acked ledger exactly once. Any lost acked record, any duplicate
	// apply, and any zombie leakage breaks this byte equality.
	ref := ingest.New(ingest.Config{Shards: 3, BatchSize: 64})
	defer ref.Close()
	ops := make([]ingest.Op, len(ledger))
	for i, rec := range ledger {
		ops[i] = ingest.EventOp(rec)
	}
	if err := ref.Submit(ops); err != nil {
		t.Fatal(err)
	}
	ref.Flush()
	refSum := ref.Summary()
	if refSum.Events != uint64(len(ledger)) {
		t.Fatalf("reference saw %d events, ledger has %d", refSum.Events, len(ledger))
	}

	fetch := func(path string) string {
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	render := func(write func(w http.ResponseWriter)) string {
		rec := httptest.NewRecorder()
		write(rec)
		return rec.Body.String()
	}
	if got, want := fetch("/v1/summary?consistent=1"),
		render(func(w http.ResponseWriter) { ingest.WriteSummary(w, refSum) }); got != want {
		t.Fatalf("post-chaos merged /v1/summary diverged from the exactly-once ledger\n--- cluster ---\n%s--- reference ---\n%s", got, want)
	}
	if got, want := fetch("/v1/availability/cdf?consistent=1"),
		render(func(w http.ResponseWriter) { ingest.WriteCDF(w, refSum, ingest.DefaultCDFQuantiles) }); got != want {
		t.Fatalf("post-chaos merged /v1/availability/cdf diverged\n--- cluster ---\n%s--- reference ---\n%s", got, want)
	}
	t.Logf("split-brain chaos survived: %d acked records, fenced zombie, merged answers byte-identical", len(ledger))

	cancel()
	select {
	case err := <-fdone:
		if err != nil {
			t.Errorf("follower shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Error("follower never shut down")
	}
}
