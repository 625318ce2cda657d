package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"swarmavail/internal/dist"
	"swarmavail/internal/ingest"
	"swarmavail/internal/trace"
)

// TestGracefulShutdownZeroLoss kills the daemon with a real SIGTERM in
// the middle of a concurrent replay-over-network and checks the
// acceptance invariant: every record the server acknowledged before
// (or while) dying is present in the final drained state. Batches the
// retrying clients could not get acknowledged are allowed to be lost —
// they were never acked, so the pushers know to replay them.
func TestGracefulShutdownZeroLoss(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	e := ingest.New(ingest.Config{Shards: 4, QueueDepth: 16})
	ready := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() { served <- serve(ctx, e, options{listen: "127.0.0.1:0"}, ready, nil) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatalf("serve exited early: %v", err)
	}
	base := fmt.Sprintf("http://%s", addr)

	// Concurrent pushers stream distinct swarms; acked counts records
	// the server has taken responsibility for.
	var acked atomic.Uint64
	var wg sync.WaitGroup
	const pushers = 4
	const batch = 50
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := ingest.NewHTTPClient(ingest.HTTPClientConfig{
				BaseURL:     base,
				MaxAttempts: 3,
				BackoffBase: 2 * time.Millisecond,
				BackoffCap:  10 * time.Millisecond,
			})
			for seq := 0; ; seq++ {
				recs := make([]ingest.Record, batch)
				for i := range recs {
					recs[i] = ingest.Record{
						SwarmID: p*1_000_000 + seq*batch + i,
						PeerID:  1, Seed: true, Online: true, Time: 0,
					}
				}
				// A plain background context: the pusher learns about the
				// shutdown the way a remote client would — from the wire.
				if err := c.Push(context.Background(), recs); err != nil {
					return
				}
				acked.Add(batch)
			}
		}(p)
	}

	// Let the replay get going, then deliver a real SIGTERM to the
	// process, exactly what a supervisor would send.
	deadline := time.Now().Add(5 * time.Second)
	for acked.Load() < 10*batch && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if acked.Load() == 0 {
		t.Fatalf("no batches acked before the signal; test would be vacuous")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not shut down after SIGTERM")
	}
	wg.Wait()

	// serve has closed (and therefore drained) the engine; post-close
	// reads return the final state.
	got := e.Summary().Events
	if got < acked.Load() {
		t.Fatalf("acknowledged records lost in shutdown: engine holds %d events, clients were acked %d", got, acked.Load())
	}
	t.Logf("acked %d records across %d pushers; engine drained %d events", acked.Load(), pushers, got)
}

// TestPushStudyRoundTrip replays a small archived study over the
// network into a second daemon and checks every monitor record arrives.
func TestPushStudyRoundTrip(t *testing.T) {
	var lines []byte
	const swarms, sessions = 20, 3
	for id := 1; id <= swarms; id++ {
		tr := trace.SwarmTrace{Meta: trace.SwarmMeta{ID: id}, MonitoredDays: 240}
		for s := 0; s < sessions; s++ {
			tr.SeedSessions = append(tr.SeedSessions,
				dist.Interval{Start: float64(s) * 10, End: float64(s)*10 + 5})
		}
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b...)
		lines = append(lines, '\n')
	}
	path := filepath.Join(t.TempDir(), "study.jsonl")
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}

	e := ingest.New(ingest.Config{Shards: 2})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() { served <- serve(ctx, e, options{listen: "127.0.0.1:0"}, ready, nil) }()
	addr := <-ready

	url := fmt.Sprintf("http://%s/v1/ingest", addr)
	if err := pushStudy(context.Background(), url, path, 32); err != nil {
		t.Fatalf("pushStudy: %v", err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	want := uint64(swarms * sessions * 2) // online + offline per session
	if got := e.Summary().Events; got != want {
		t.Fatalf("engine holds %d events, want %d", got, want)
	}
}
