package main

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// TestGatewayStreamRidesFailover: a monitor streams through the
// gateway's binary front into a durable leader whose standby
// (availd -follow) has shipped everything, and the leader goes down.
// Calling it down takes the health loop six 1 s ticks — longer than a
// stream client's default 4.75 s retry budget — so the gateway's
// upstream client must redial for the slot's push budget, not its own
// default: the monitor sees no ERR and never reconnects, and every frame
// it sent after the kill lands exactly once on the promoted standby.
func TestGatewayStreamRidesFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a six-second failover")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	leaderDir := t.TempDir()
	le, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: leaderDir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	lctx, kill := context.WithCancel(ctx)
	defer kill()
	leaderAPI, leaderBin, leaderServed := startAvaild(t, lctx, le,
		options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0", dataDir: leaderDir})
	leaderURL := "http://" + leaderAPI.String()
	standbyAPI, standbyBin, standbyServed := startAvaild(t, ctx, nil, options{
		listen:     "127.0.0.1:0",
		ingestBin:  "127.0.0.1:0",
		dataDir:    t.TempDir(),
		fsync:      "off",
		follow:     leaderURL,
		followPoll: 20 * time.Millisecond,
		shards:     2,
	})
	standbyURL := "http://" + standbyAPI.String()

	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes: []cluster.NodeConfig{{
			Name: "n0", URL: leaderURL, Follower: standbyURL,
			BinAddr: leaderBin.String(), FollowerBin: standbyBin.String(),
		}},
		HealthEvery: time.Second,
		FailAfter:   6,
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
	defer ln.Close()
	go g.ServeStream(ln)

	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: ln.Addr().String(), Source: "mon-failover", BatchSize: 10, Logf: t.Logf})
	defer c.Abandon()
	const perPhase = 200
	send := func(phase int) {
		t.Helper()
		for i := 0; i < perPhase; i++ {
			rec := ingest.Record{SwarmID: i % 23, PeerID: uint64(phase*perPhase + i + 1), Online: true, Time: float64(phase) + float64(i)/perPhase}
			if err := c.Observe(rec); err != nil {
				t.Fatalf("phase %d observe: %v", phase, err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("phase %d flush: %v", phase, err)
		}
	}
	send(0)
	waitShipped(t, leaderURL, standbyURL)

	kill()
	select {
	case err := <-leaderServed:
		if err != nil {
			t.Fatalf("leader shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader never shut down")
	}
	start := time.Now()
	send(1) // acknowledged only once the standby is promoted and serving
	t.Logf("frames sent after the kill acknowledged after %v", time.Since(start).Round(time.Millisecond))

	if n := c.Reconnects(); n != 0 {
		t.Fatalf("the monitor reconnected %d times: the gateway dropped its stream during the failover", n)
	}
	if g.NodeURL(0) != standbyURL {
		t.Fatalf("slot 0 routes to %s, want the promoted standby %s", g.NodeURL(0), standbyURL)
	}
	var sum struct {
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(fetch(t, standbyURL+"/v1/summary?consistent=1"), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Events != 2*perPhase {
		t.Fatalf("promoted node holds %d events, want %d shipped + %d streamed after the kill, each once", sum.Events, perPhase, perPhase)
	}

	c.Abandon()
	ln.Close()
	g.Close()
	cancel()
	select {
	case err := <-standbyServed:
		if err != nil {
			t.Fatalf("promoted node shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("promoted node never shut down")
	}
}
