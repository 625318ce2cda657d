package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
)

// TestClusterNodeChild is the re-exec target of TestClusterCrashFailover:
// one real leader availd on a durable engine, in its own process so the
// parent can SIGKILL it mid-campaign. Skipped unless the harness
// environment is set.
func TestClusterNodeChild(t *testing.T) {
	dir := os.Getenv("AVAILD_CLUSTER_DIR")
	if dir == "" {
		t.Skip("cluster-crash child; run via TestClusterCrashFailover")
	}
	e, _, err := ingest.OpenDurable(
		ingest.Config{Shards: 2, BatchSize: 32},
		ingest.DurabilityConfig{Dir: dir},
	)
	if err != nil {
		t.Fatalf("child recover: %v", err)
	}
	relay := make(chan net.Addr, 1)
	go func() {
		fmt.Printf("CHILD_ADDR %s\n", <-relay)
	}()
	err = serve(context.Background(), e, options{
		listen:          "127.0.0.1:0",
		dataDir:         dir,
		checkpointEvery: 100 * time.Millisecond,
	}, relay, nil)
	t.Fatalf("child serve returned before SIGKILL: %v", err)
}

// clusterChild manages one re-exec'd leader process.
type clusterChild struct {
	cmd *exec.Cmd
	url string
}

func startClusterChild(t *testing.T, exe, dir string) *clusterChild {
	t.Helper()
	cmd := exec.Command(exe, "-test.run=^TestClusterNodeChild$", "-test.v")
	cmd.Env = append(os.Environ(), "AVAILD_CLUSTER_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "CHILD_ADDR "); ok {
				addrCh <- addr
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-addrCh:
		return &clusterChild{cmd: cmd, url: "http://" + addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("cluster child never reported its address")
		return nil
	}
}

func (c *clusterChild) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// fetchJSON GETs url and decodes the body into v.
// walStatus reads a leader's GET /v1/wal/status.
func walStatus(baseURL string) (cluster.WALStatus, error) {
	var st cluster.WALStatus
	return st, fetchJSON(baseURL+"/v1/wal/status", &st)
}

func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestClusterCrashFailover is the tentpole acceptance test: a 3-node
// cluster (re-exec'd durable leaders, in-process followers shipping
// their WALs, one gateway fanning a campaign out) loses a leader to
// SIGKILL mid-campaign; the gateway promotes its follower, the rest of
// the campaign lands, and the merged cluster answers must be
// byte-identical to a single engine that saw the whole acked ledger.
func TestClusterCrashFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec cluster crash harness")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	const nNodes = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Leaders: real availd processes on durable engines.
	children := make([]*clusterChild, nNodes)
	for i := range children {
		children[i] = startClusterChild(t, exe, t.TempDir())
		defer children[i].kill()
	}

	// Followers: in-process standby serve instances shipping each leader's
	// WAL, promotable over HTTP exactly as in production.
	followerURLs := make([]string, nNodes)
	followerDone := make([]chan error, nNodes)
	for i := range followerURLs {
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		opts := options{
			listen:     "127.0.0.1:0",
			dataDir:    t.TempDir(),
			follow:     children[i].url,
			followPoll: 25 * time.Millisecond,
			shards:     2,
			batch:      32,
		}
		go func() { done <- serve(ctx, nil, opts, ready, nil) }()
		select {
		case addr := <-ready:
			followerURLs[i] = "http://" + addr.String()
		case err := <-done:
			t.Fatalf("follower %d exited early: %v", i, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("follower %d never became ready", i)
		}
		followerDone[i] = done
	}

	// The gateway, in-process, with a fast failure detector.
	nodes := make([]cluster.NodeConfig, nNodes)
	for i := range nodes {
		nodes[i] = cluster.NodeConfig{
			Name:     fmt.Sprintf("node%d", i),
			URL:      children[i].url,
			Follower: followerURLs[i],
		}
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes:       nodes,
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

	client := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		BaseURL:     gw.URL,
		MaxAttempts: 4,
		BackoffBase: 20 * time.Millisecond,
	})

	const (
		batches  = 16
		perBatch = 40
		swarms   = 97
	)
	var ledger []ingest.Record
	mkBatch := func(seq int) []ingest.Record {
		recs := make([]ingest.Record, perBatch)
		for i := range recs {
			recs[i] = ingest.Record{
				SwarmID: (seq*perBatch + i) % swarms,
				PeerID:  uint64(seq%5 + 1),
				Seed:    i%3 != 2,
				Online:  (seq+i)%2 == 0,
				Time:    float64(seq*100+i) / 50,
			}
		}
		return recs
	}
	push := func(seq int) {
		t.Helper()
		recs := mkBatch(seq)
		pushCtx, pushCancel := context.WithTimeout(ctx, 60*time.Second)
		defer pushCancel()
		if err := client.Push(pushCtx, recs); err != nil {
			t.Fatalf("push %d: %v", seq, err)
		}
		ledger = append(ledger, recs...)
	}

	// First half of the campaign against the healthy cluster.
	for seq := 0; seq < batches/2; seq++ {
		push(seq)
	}

	// Quiesce: every follower must have shipped everything its leader
	// acked, so the SIGKILL loses no acknowledged state.
	for i := 0; i < nNodes; i++ {
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := walStatus(children[i].url)
			if err != nil {
				t.Fatalf("node %d wal status: %v", i, err)
			}
			var fst struct {
				Shipped uint64 `json:"shipped"`
			}
			if err := fetchJSON(followerURLs[i]+"/v1/follower/status", &fst); err != nil {
				t.Fatalf("follower %d status: %v", i, err)
			}
			if fst.Shipped == st.LastSeq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %d stuck at %d, leader at %d", i, fst.Shipped, st.LastSeq)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// SIGKILL node 0's leader: no drain, no final checkpoint. The
	// gateway's health loop must promote its follower, and the rest of
	// the campaign must land (pushes in flight ride the retry loop).
	children[0].kill()
	for seq := batches / 2; seq < batches; seq++ {
		push(seq)
	}
	if g.NodeURL(0) != followerURLs[0] {
		t.Fatalf("slot 0 routes to %s, want promoted follower %s", g.NodeURL(0), followerURLs[0])
	}

	// Reference: one engine, no cluster, no crash, same acked ledger.
	ref := ingest.New(ingest.Config{Shards: 3, BatchSize: 64})
	defer ref.Close()
	for i := 0; i < len(ledger); i += perBatch {
		ops := make([]ingest.Op, perBatch)
		for k, rec := range ledger[i : i+perBatch] {
			ops[k] = ingest.EventOp(rec)
		}
		if err := ref.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()
	refSum := ref.Summary()

	fetch := func(path string) string {
		resp, err := http.Get(gw.URL + path)
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
		return string(body)
	}
	render := func(write func(w http.ResponseWriter)) string {
		rec := httptest.NewRecorder()
		write(rec)
		return rec.Body.String()
	}

	if got, want := fetch("/v1/summary?consistent=1"),
		render(func(w http.ResponseWriter) { ingest.WriteSummary(w, refSum) }); got != want {
		t.Fatalf("post-failover merged /v1/summary diverged from the acked ledger\n--- cluster ---\n%s--- reference ---\n%s", got, want)
	}
	if got, want := fetch("/v1/availability/cdf?consistent=1"),
		render(func(w http.ResponseWriter) { ingest.WriteCDF(w, refSum, ingest.DefaultCDFQuantiles) }); got != want {
		t.Fatalf("post-failover merged /v1/availability/cdf diverged\n--- cluster ---\n%s--- reference ---\n%s", got, want)
	}
	if refSum.Events != uint64(len(ledger)) {
		t.Fatalf("reference saw %d events, ledger has %d", refSum.Events, len(ledger))
	}
	t.Logf("cluster survived SIGKILL: %d acked records, merged answers byte-identical", len(ledger))

	// Tear the followers down and surface any shutdown errors.
	cancel()
	for i, done := range followerDone {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("follower %d shutdown: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Errorf("follower %d never shut down", i)
		}
	}
}
