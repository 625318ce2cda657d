package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/trace"
)

// writeStudy writes a generated n-swarm availability study to a JSONL
// file and returns its path and swarm ids.
func writeStudy(t *testing.T, n int) (path string, ids []int) {
	t.Helper()
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(n, 7))
	var buf bytes.Buffer
	if err := trace.WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "study.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		ids = append(ids, tr.Meta.ID)
	}
	return path, ids
}

// replayLocally builds the reference: the study at path replayed into
// an in-process engine, as availd -replay does.
func replayLocally(t *testing.T, path string) *ingest.Engine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref := ingest.New(ingest.Config{Shards: 2})
	t.Cleanup(ref.Close)
	if _, err := ingest.ReplayTraces(ref, trace.NewTraceScanner(f), 4); err != nil {
		t.Fatal(err)
	}
	return ref
}

func stateJSON(t *testing.T, sum *ingest.Summary) []byte {
	t.Helper()
	b, err := json.Marshal(sum.State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamPushMatchesReplay: a study pushed to a node's -ingest-bin
// leaves the node with the state a local replay of the same file builds
// — every swarm's registration travels with its sessions, so the
// monitoring horizon, and with it each availability figure and the §2
// headlines, is the replayed one.
func TestStreamPushMatchesReplay(t *testing.T) {
	path, ids := writeStudy(t, 300)
	ref := replayLocally(t, path)

	ctx, cancel := context.WithCancel(context.Background())
	e := ingest.New(ingest.Config{Shards: 3})
	_, bin, served := startAvaild(t, ctx, e, options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0"})
	if err := pushStudy(ctx, bin.String(), path, 0); err != nil {
		t.Fatalf("pushStudy: %v", err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	differ := 0
	for _, id := range ids {
		got, ok := e.Swarm(id)
		want, _ := ref.Swarm(id)
		if !ok || !reflect.DeepEqual(got, want) {
			if differ == 0 {
				t.Errorf("swarm %d pushed: %+v (present %v)\nreplayed: %+v", id, got, ok, want)
			}
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d swarms differ between push and replay", differ, len(ids))
	}
	sum, want := e.Summary(), ref.Summary()
	if got, want := stateJSON(t, sum), stateJSON(t, want); !bytes.Equal(got, want) {
		t.Fatalf("pushed state (%d bytes) differs from replayed state (%d bytes)", len(got), len(want))
	}
	h := sum.Headlines()
	t.Logf("%d swarms: %.1f%% available ≤20%% of the trace, pushed and replayed alike", len(ids), 100*h.MostlyUnavailableOverall)
}

// TestStreamPushThroughGateway: the same push through availgw's binary
// front, over two nodes, serves a merged /v1/state byte-identical to
// the single-engine replay.
func TestStreamPushThroughGateway(t *testing.T) {
	path, _ := writeStudy(t, 300)
	ref := replayLocally(t, path)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var nodes []cluster.NodeConfig
	var served []chan error
	for i := 0; i < 2; i++ {
		api, bin, s := startAvaild(t, ctx, ingest.New(ingest.Config{Shards: 2}),
			options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0"})
		nodes = append(nodes, cluster.NodeConfig{URL: "http://" + api.String(), BinAddr: bin.String()})
		served = append(served, s)
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{Nodes: nodes, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go g.ServeStream(ln)

	if err := pushStudy(ctx, ln.Addr().String(), path, 0); err != nil {
		t.Fatalf("pushStudy: %v", err)
	}
	want := httptest.NewRecorder()
	ingest.WriteState(want, ref.Summary())
	if merged := fetch(t, gw.URL+"/v1/state?consistent=1"); !bytes.Equal(merged, want.Body.Bytes()) {
		t.Fatalf("merged /v1/state (%d bytes) differs from the single-engine replay (%d bytes)", len(merged), want.Body.Len())
	}

	ln.Close()
	g.Close()
	cancel()
	for _, s := range served {
		if err := <-s; err != nil {
			t.Fatalf("node shutdown: %v", err)
		}
	}
}

// TestStreamPushCancelReturnsPromptly: against an upstream that accepts
// and never acknowledges, a push whose context ends returns at once with
// the context's error — it does not sit out the retry budget — and
// leaves no goroutine behind.
func TestStreamPushCancelReturnsPromptly(t *testing.T) {
	path, _ := writeStudy(t, 300)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	accepted := make(chan struct{}, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn) // held open, never read
			mu.Unlock()
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pushStudy(ctx, ln.Addr().String(), path, 0) }()
	select {
	case <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("the push never connected")
	}
	// Give the frames time to go in flight. The cancel must be prompt from
	// any point; this one is meant to find the push waiting on acks.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pushStudy returned %v, want context.Canceled", err)
		}
		if took := time.Since(start); took >= time.Second {
			t.Fatalf("pushStudy took %v to return after the cancel", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pushStudy still running 10s after the cancel")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the push, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamPushAddr: -push takes a bare host:port. The HTTP URL it
// once took, or an address without a port, fails before anything is
// opened, with an error naming -ingest-bin.
func TestStreamPushAddr(t *testing.T) {
	for _, tc := range []struct {
		addr string
		ok   bool
	}{
		{"http://127.0.0.1:8647/v1/ingest", false},
		{"http://127.0.0.1:8649", false},
		{"127.0.0.1:8649/v1/ingest", false},
		{"127.0.0.1:", false},
		{"127.0.0.1", false},
		{"127.0.0.1:8649", true},
		{"localhost:8649", true},
	} {
		err := checkPushAddr(tc.addr)
		if tc.ok {
			if err != nil {
				t.Errorf("%q: %v", tc.addr, err)
			}
			continue
		}
		// The check runs first: the missing study file is never reached.
		err = pushStudy(context.Background(), tc.addr, filepath.Join(t.TempDir(), "absent.jsonl"), 0)
		if err == nil || !strings.Contains(err.Error(), "-ingest-bin") {
			t.Errorf("%q: got %v, want an error naming -ingest-bin", tc.addr, err)
		}
	}
}
