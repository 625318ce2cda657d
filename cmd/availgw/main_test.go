package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swarmavail/internal/ingest"
)

func TestParseNodes(t *testing.T) {
	nodes, err := parseNodes("http://a:1, http://b:2/ ,http://c:3", "http://fa:1,,http://fc:3", "a:9,b:9, c:9", "fa:9,,fc:9")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	if nodes[0].URL != "http://a:1" || nodes[1].URL != "http://b:2" || nodes[2].URL != "http://c:3" {
		t.Fatalf("bad URLs: %+v", nodes)
	}
	if nodes[0].Follower != "http://fa:1" || nodes[1].Follower != "" || nodes[2].Follower != "http://fc:3" {
		t.Fatalf("bad followers: %+v", nodes)
	}
	if nodes[0].Name != "node0" || nodes[2].Name != "node2" {
		t.Fatalf("bad names: %+v", nodes)
	}
	if nodes[2].BinAddr != "c:9" || nodes[0].FollowerBin != "fa:9" || nodes[1].FollowerBin != "" {
		t.Fatalf("bad binary addresses: %+v", nodes)
	}

	if _, err := parseNodes("", "", "", ""); err == nil {
		t.Fatal("empty -nodes accepted")
	}
	if _, err := parseNodes("http://a:1,http://b:2", "http://f:1", "a:9,b:9", ""); err == nil {
		t.Fatal("mismatched -followers length accepted")
	}
	if _, err := parseNodes("http://a:1,,http://c:3", "", "a:9,b:9,c:9", ""); err == nil {
		t.Fatal("empty node URL accepted")
	}
	if _, err := parseNodes("http://a:1", "", "", ""); err == nil {
		t.Fatal("a node without -node-bins accepted: the gateway could not write to it")
	}
	if _, err := parseNodes("http://a:1,http://b:2", "http://fa:1,", "a:9,b:9", ""); err == nil {
		t.Fatal("a follower without -follower-bins accepted: writes after its promotion would go to the retired leader")
	}
}

// TestRunServesCluster boots the real run() against one in-process
// node and checks a push round-trips into the merged summary.
func TestRunServesCluster(t *testing.T) {
	e := ingest.New(ingest.Config{Shards: 2, BatchSize: 16})
	defer e.Close()
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := ingest.NewStreamServer(e, nil)
	go ss.Serve(binLn)
	defer ss.Close()
	defer binLn.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/state", func(w http.ResponseWriter, r *http.Request) {
		e.Flush()
		ingest.WriteState(w, e.Summary())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	})
	node := httptest.NewServer(mux)
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			listen:      "127.0.0.1:0",
			nodes:       node.URL,
			nodeBins:    binLn.Addr().String(),
			healthEvery: time.Hour,
		}, t.Logf, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = fmt.Sprintf("http://%s", addr)
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never became ready")
	}

	client := ingest.NewHTTPClient(ingest.HTTPClientConfig{BaseURL: base, MaxAttempts: 2})
	recs := make([]ingest.Record, 50)
	for i := range recs {
		recs[i] = ingest.Record{SwarmID: i % 7, PeerID: 1, Seed: true, Online: true, Time: float64(i)}
	}
	if err := client.Push(ctx, recs); err != nil {
		t.Fatalf("push through gateway: %v", err)
	}
	sum, err := client.FetchSummary(ctx)
	if err != nil {
		t.Fatalf("fetch summary: %v", err)
	}
	if sum.Events != uint64(len(recs)) {
		t.Fatalf("gateway summary has %d events, pushed %d", sum.Events, len(recs))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never shut down")
	}
}

// TestGatewayHealthzDrainTransition: on shutdown the gateway must
// advertise draining on /v1/healthz — while still answering — for the
// -drain-grace window before the listener closes, mirroring availd.
func TestGatewayHealthzDrainTransition(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	}))
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			listen:      "127.0.0.1:0",
			nodes:       node.URL,
			nodeBins:    "127.0.0.1:1", // never dialed: nothing is written
			healthEvery: time.Hour,
			drainGrace:  500 * time.Millisecond,
		}, t.Logf, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = fmt.Sprintf("http://%s", addr)
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never became ready")
	}

	healthz := func() (int, string) {
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := healthz(); code != http.StatusOK {
		t.Fatalf("pre-drain healthz: %d %s", code, body)
	}

	cancel()
	// Inside the grace window the listener must still answer — with 503
	// draining — so load balancers see the transition before the socket
	// vanishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := healthz()
		if code == http.StatusServiceUnavailable && strings.Contains(body, "draining") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never advertised draining (last: %d %s)", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never shut down after the grace window")
	}
}
