package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
)

// waitShipped blocks until the standby's shipped watermark has reached
// the leader's (non-empty) WAL tail, so a promotion loses nothing acked.
func waitShipped(t *testing.T, leaderURL, standbyURL string) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st, err := cluster.FetchWALStatus(http.DefaultClient, leaderURL)
		if err != nil {
			t.Fatal(err)
		}
		var fst struct {
			Shipped uint64 `json:"shipped"`
		}
		if err := fetchJSON(standbyURL+"/v1/follower/status", &fst); err != nil {
			t.Fatal(err)
		}
		if st.LastSeq > 0 && fst.Shipped == st.LastSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at %d, leader at %d", fst.Shipped, st.LastSeq)
		}
	}
}

// TestPromotedFollowerIsFullNode drives the daemon, not the engine: a
// standby booted with -ingest-bin, -admin and -fsync off must, once
// promoted, be the node a leader booted with those flags would be —
// binary ingest lands, the admin listener scrapes one registry before
// and after, the fsync policy is the one asked for, and shutdown drains
// into a final checkpoint.
func TestPromotedFollowerIsFullNode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// A durable leader, so it has a journal to ship.
	leaderDir := t.TempDir()
	le, _, err := ingest.OpenDurable(ingest.Config{Shards: 2, BatchSize: 32}, ingest.DurabilityConfig{Dir: leaderDir})
	if err != nil {
		t.Fatal(err)
	}
	leaderAPI, _, leaderServed := startAvaild(t, ctx, le, options{listen: "127.0.0.1:0", dataDir: leaderDir})
	leaderURL := "http://" + leaderAPI.String()

	standbyDir := t.TempDir()
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	ready, adminReady, binReady := make(chan net.Addr, 1), make(chan net.Addr, 1), make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- serve(sctx, nil, options{
			listen:     "127.0.0.1:0",
			admin:      "127.0.0.1:0",
			ingestBin:  "127.0.0.1:0",
			binReady:   binReady,
			dataDir:    standbyDir,
			fsync:      "off",
			follow:     leaderURL,
			followPoll: 20 * time.Millisecond,
			shards:     2,
			batch:      32,
		}, ready, adminReady)
	}()
	var api, admin, bin net.Addr
	for _, w := range []struct {
		ch   chan net.Addr
		addr *net.Addr
	}{{ready, &api}, {adminReady, &admin}, {binReady, &bin}} {
		select {
		case *w.addr = <-w.ch:
		case err := <-served:
			t.Fatalf("standby exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("standby never bound all three listeners")
		}
	}
	standbyURL := "http://" + api.String()

	// Push to the leader, then wait until the standby has shipped it all.
	const pushed = 120
	recs := make([]ingest.Record, pushed)
	for i := range recs {
		recs[i] = ingest.Record{SwarmID: i % 17, PeerID: uint64(i%5 + 1), Seed: i%3 == 0, Online: i%2 == 0, Time: float64(i) / 10}
	}
	if err := ingest.NewHTTPClient(ingest.HTTPClientConfig{BaseURL: leaderURL}).Push(ctx, recs); err != nil {
		t.Fatalf("push: %v", err)
	}
	waitShipped(t, leaderURL, standbyURL)

	// The admin surface is up on a standby and shows it shipping.
	if before := scrapeMetrics(t, admin); before["follower_shipped_seq"] == 0 {
		t.Errorf("standby admin scrape: follower_shipped_seq = 0, want the shipped watermark")
	}

	resp, err := http.Post(standbyURL+"/v1/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %s", resp.Status)
	}
	if code, state := getHealth(t, standbyURL); code != http.StatusOK || state != "serving" {
		t.Fatalf("promoted node: got %d %q, want 200 serving", code, state)
	}
	promoted := scrapeMetrics(t, admin)

	// (1) The binary listener bound at boot now takes a stream. One frame
	// per flush, so under the default policy each would cost an fsync.
	const frames = 200
	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: bin.String(), MaxAttempts: 2})
	for f := 0; f < frames; f++ {
		if err := c.Observe(ingest.Record{SwarmID: 100 + f%7, PeerID: uint64(f + 1), Online: true, Time: float64(f)}); err != nil {
			t.Fatalf("stream observe %d: %v", f, err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("stream flush %d: %v", f, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(fetch(t, standbyURL+"/v1/summary?consistent=1"), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Events != pushed+frames {
		t.Errorf("promoted node holds %d events, want %d shipped + %d streamed", sum.Events, pushed, frames)
	}

	// (2) One registry, one scrape: the follower's series survive the
	// promotion and the engine's join them.
	after := scrapeMetrics(t, admin)
	for _, name := range []string{"follower_shipped_seq", "ingest_records_total", "cluster_epoch", "process_goroutines"} {
		if _, ok := after[name]; !ok {
			t.Errorf("admin scrape after promotion lacks %s", name)
		}
	}
	if got := after["ingest_stream_frames_total"]; got != frames {
		t.Errorf("ingest_stream_frames_total = %v, want %d", got, frames)
	}

	// (3) -fsync off survived the promotion: acked frames do not each
	// cost an fsync.
	if grew := after["wal_fsync_seconds_count"] - promoted["wal_fsync_seconds_count"]; grew > frames/10 {
		t.Errorf("wal_fsync_seconds_count grew by %v over %d acked frames under -fsync off", grew, frames)
	}

	// (4) A SIGTERM-style cancel drains and folds the state into a final
	// checkpoint a reboot loads without replaying anything.
	scancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("promoted node shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("promoted node never shut down")
	}
	re, rs, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: standbyDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs.CheckpointSeq == 0 || rs.ReplayedFrames != 0 {
		t.Errorf("reboot after drain: %+v, want a final checkpoint and an empty WAL tail", rs)
	}
	if got := re.Summary().Events; got != pushed+frames {
		t.Errorf("rebooted node holds %d events, want %d", got, pushed+frames)
	}

	cancel()
	select {
	case err := <-leaderServed:
		if err != nil {
			t.Fatalf("leader shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader never shut down")
	}
}
