package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/faultnet"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// ackDropper wraps a leader's handler and, for armed idempotency keys,
// lets the request journal and apply normally but answers 503 — the
// lost-ack fault: the node has the batch, the sender doesn't know.
type ackDropper struct {
	inner http.Handler
	mu    sync.Mutex
	armed map[string]bool
	drops int
}

func (d *ackDropper) arm(source string, seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.armed == nil {
		d.armed = make(map[string]bool)
	}
	d.armed[source+"|"+strconv.FormatUint(seq, 10)] = true
}

func (d *ackDropper) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drops
}

func (d *ackDropper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	drop := false
	if r.Method == http.MethodPost && r.URL.Path == "/v1/ingest" {
		key := r.Header.Get(ingest.HeaderSource) + "|" + r.Header.Get(ingest.HeaderSeq)
		d.mu.Lock()
		if d.armed[key] {
			delete(d.armed, key)
			d.drops++
			drop = true
		}
		d.mu.Unlock()
	}
	if !drop {
		d.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	d.inner.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		return
	}
	http.Error(w, "injected ack loss", http.StatusServiceUnavailable)
}

// TestPartitionChaosFailover is the split-brain acceptance test: an
// asymmetric partition cuts the gateway off from slot 0's leader while
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

	// Leaders: durable engines behind the real availd handler (epoch
	// gate included), as in-process listeners the fault layer can cut.
	mkLeader := func(dir string) (*ingest.Engine, http.Handler) {
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
		return e, s.handler()
	}
	dir0 := t.TempDir()
	e0, h0 := mkLeader(dir0)
	defer e0.Close()
	dropper := &ackDropper{inner: h0}
	leader0 := httptest.NewServer(dropper)
	defer leader0.Close()
	e1, h1 := mkLeader(t.TempDir())
	defer e1.Close()
	leader1 := httptest.NewServer(h1)
	defer leader1.Close()

	// Slot 0's follower: a real standby serve on clean transports, so it
	// keeps shipping the leader's WAL through the gateway-side partition
	// — the asymmetry that makes promotion lossless.
	fready := make(chan net.Addr, 1)
	fdone := make(chan error, 1)
	go func() {
		fdone <- serve(ctx, nil, options{
			listen:     "127.0.0.1:0",
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
	followerURL := "http://" + fAddr.String()

	// The gateway reaches the nodes only through the fault network.
	reg := obs.NewRegistry()
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes: []cluster.NodeConfig{
			{Name: "slot0", URL: leader0.URL, Follower: followerURL},
			{Name: "slot1", URL: leader1.URL},
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
	// Push carries key ("campaign", 3); slot 0 journals its share, drops
	// the ack, and the gateway's retry of the same key must dedup there.
	dropper.arm(client.Source(), 3)
	for salt := 0; salt < 6; salt++ {
		push(salt)
	}
	if dropper.count() != 1 {
		t.Fatalf("injected %d ack losses, want 1", dropper.count())
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
