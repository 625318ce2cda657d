package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
)

// get answers one GET: status and body.
func get(t *testing.T, url string, header ...string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestSwarmRoutesReadYourWrites: GET /v1/swarm/{id} answers 400 for a
// bad id, 404 for an unknown one, and for a known one the swarm as of
// every write acknowledged before the request, and without
// ?consistent=1, which changes nothing: a per-swarm read runs on the
// swarm's home shard and never touches the published aggregate view, so
// how stale that view may get is beside the point. /timeline serves the
// same swarm's bins.
func TestSwarmRoutesReadYourWrites(t *testing.T) {
	e := ingest.New(ingest.Config{Shards: 2})
	defer e.Close()
	node := httptest.NewServer((&server{engine: e}).handler())
	defer node.Close()

	for _, row := range []struct {
		path string
		code int
	}{
		{"/v1/swarm/five", http.StatusBadRequest},
		{"/v1/swarm/five/timeline", http.StatusBadRequest},
		{"/v1/swarm/5", http.StatusNotFound},
		{"/v1/swarm/5/timeline", http.StatusNotFound},
	} {
		if code, body := get(t, node.URL+row.path); code != row.code {
			t.Fatalf("GET %s: %d %s, want %d", row.path, code, body, row.code)
		}
	}

	swarm := func() ingest.SwarmStats {
		t.Helper()
		code, body := get(t, node.URL+"/v1/swarm/5")
		if code != http.StatusOK {
			t.Fatalf("GET /v1/swarm/5 after an acknowledged write: %d %s", code, body)
		}
		if _, again := get(t, node.URL+"/v1/swarm/5?consistent=1"); !bytes.Equal(again, body) {
			t.Fatalf("?consistent=1 changed the answer\nplain:      %s\nconsistent: %s", body, again)
		}
		var st ingest.SwarmStats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	push := func(url string, recs ...ingest.Record) {
		t.Helper()
		if err := pushBatch(url+"/v1/ingest", recs); err != nil {
			t.Fatalf("POST /v1/ingest: %v", err)
		}
	}
	push(node.URL, ingest.Record{SwarmID: 5, PeerID: 1, Seed: true, Online: true, Time: 0.5})
	if st := swarm(); st.Events != 1 || st.SeedsOnline != 1 {
		t.Fatalf("after one seed came online: events %d, seeds online %d", st.Events, st.SeedsOnline)
	}
	push(node.URL, ingest.Record{SwarmID: 5, PeerID: 1, Seed: true, Online: false, Time: 2.5})
	if st := swarm(); st.Events != 2 || st.SeedsOnline != 0 || st.BusyPeriods != 1 {
		t.Fatalf("after the seed left: events %d, seeds online %d, busy periods %d", st.Events, st.SeedsOnline, st.BusyPeriods)
	}

	code, body := get(t, node.URL+"/v1/swarm/5/timeline")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/swarm/5/timeline: %d %s", code, body)
	}
	var tl ingest.TimelineResponse
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	var events, busy uint64
	var covered float64
	for _, b := range append(tl.Bins, tl.CoarseBins...) {
		events, busy, covered = events+b.Events, busy+b.BusyStarts, covered+b.CoveredDays
	}
	if tl.SwarmID != 5 || events != 2 || busy != 1 || math.Abs(covered-2) > 1e-9 {
		t.Fatalf("timeline of swarm %d holds %d events, %d busy starts, %v seeded days; want swarm 5, 2, 1, 2", tl.SwarmID, events, busy, covered)
	}
}

// TestGatewaySwarmRoutesToHomeSlot: availgw serves /v1/swarm/{id} and its
// /timeline from the swarm's home slot on the ring, byte for byte what
// that node answers itself; the other node has never heard of the swarm.
func TestGatewaySwarmRoutesToHomeSlot(t *testing.T) {
	var nodes []*httptest.Server
	var bins []string
	for i := 0; i < 2; i++ {
		e := ingest.New(ingest.Config{Shards: 2})
		defer e.Close()
		node := httptest.NewServer((&server{engine: e}).handler())
		defer node.Close()
		nodes, bins = append(nodes, node), append(bins, serveStream(t, e, nil))
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{Nodes: []cluster.NodeConfig{
		{Name: "node0", URL: nodes[0].URL, BinAddr: bins[0]}, {Name: "node1", URL: nodes[1].URL, BinAddr: bins[1]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	const swarms = 24
	var recs []ingest.Record
	for id := 0; id < swarms; id++ {
		recs = append(recs,
			ingest.Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: float64(id % 5)},
			ingest.Record{SwarmID: id, PeerID: 2, Online: true, Time: float64(id%5) + 0.5})
	}
	if err := pushBatch(gw.URL+"/v1/ingest", recs); err != nil {
		t.Fatal(err)
	}

	homed := make([]int, len(nodes))
	for id := 0; id < swarms; id++ {
		home := g.Ring().Node(id)
		homed[home]++
		for _, path := range []string{fmt.Sprintf("/v1/swarm/%d", id), fmt.Sprintf("/v1/swarm/%d/timeline", id)} {
			code, via := get(t, gw.URL+path)
			wantCode, want := get(t, nodes[home].URL+path)
			if code != http.StatusOK || wantCode != http.StatusOK || !bytes.Equal(via, want) {
				t.Fatalf("GET %s: gateway %d %s, home node %d %d %s", path, code, via, home, wantCode, want)
			}
			if other, _ := get(t, nodes[1-home].URL+path); other != http.StatusNotFound {
				t.Fatalf("GET %s on the node that is not swarm %d's home: %d, want 404", path, id, other)
			}
		}
	}
	if homed[0] == 0 || homed[1] == 0 {
		t.Fatalf("the ring homed swarms %v: the test needs both slots", homed)
	}
}

// TestGatewaySwarmReadFenced: a per-swarm read through the gateway is
// fenced like a merged one. Once the gateway has learned a slot's epoch
// and the slot's node is fenced — a request from a newer era demoted it,
// so its state has diverged — /v1/summary and /v1/swarm/{id} for a swarm
// homed there both answer 503, every time; the other slot keeps serving.
func TestGatewaySwarmReadFenced(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bases, bins []string
	var served []chan error
	for i := 0; i < 2; i++ {
		e := ingest.New(ingest.Config{Shards: 2})
		defer e.Close()
		api, bin, done := startAvaild(t, ctx, e, options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0"})
		bases, bins = append(bases, "http://"+api.String()), append(bins, bin.String())
		served = append(served, done)
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes:       []cluster.NodeConfig{{Name: "node0", URL: bases[0], BinAddr: bins[0]}, {Name: "node1", URL: bases[1], BinAddr: bins[1]}},
		HealthEvery: 20 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// One swarm homed on each slot.
	homeOf := map[int]int{}
	for id := 0; len(homeOf) < 2; id++ {
		if _, ok := homeOf[g.Ring().Node(id)]; !ok {
			homeOf[g.Ring().Node(id)] = id
		}
	}
	if err := pushBatch(gw.URL+"/v1/ingest", []ingest.Record{
		{SwarmID: homeOf[0], PeerID: 1, Seed: true, Online: true, Time: 0.5},
		{SwarmID: homeOf[1], PeerID: 1, Seed: true, Online: true, Time: 0.5},
	}); err != nil {
		t.Fatal(err)
	}

	// The health loop teaches the gateway both slots' epoch (1).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var status struct {
			Nodes []struct {
				Epoch uint64 `json:"epoch"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(fetch(t, gw.URL+"/v1/cluster"), &status); err != nil {
			t.Fatal(err)
		}
		if status.Nodes[0].Epoch == 1 && status.Nodes[1].Epoch == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the gateway never learned the slot epochs: %+v", status.Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Barrier reads throughout: what is asked is each node's state now.
	summary := "/v1/summary?consistent=1"
	swarm0 := fmt.Sprintf("/v1/swarm/%d", homeOf[0])
	for _, path := range []string{summary, swarm0 + "?consistent=1"} {
		if code, body := get(t, gw.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s before the fence: %d %s", path, code, body)
		}
	}

	// A request from a newer era fences node 0.
	if code, body := get(t, bases[0]+"/v1/healthz", cluster.EpochHeader, "7"); code != http.StatusConflict {
		t.Fatalf("stamped probe: %d %s, want 409 (the node demoting itself)", code, body)
	}
	// Twice each: the first answer teaches the slot epoch 7, the second is
	// stamped with it and meets the fence itself.
	for round := 1; round <= 2; round++ {
		for _, path := range []string{summary, swarm0 + "?consistent=1", swarm0 + "/timeline"} {
			if code, body := get(t, gw.URL+path); code != http.StatusServiceUnavailable {
				t.Fatalf("round %d: GET %s from a fenced slot: %d %s, want 503", round, path, code, body)
			}
		}
	}
	swarm1 := fmt.Sprintf("/v1/swarm/%d?consistent=1", homeOf[1])
	if code, body := get(t, gw.URL+swarm1); code != http.StatusOK {
		t.Fatalf("GET %s from the unfenced slot: %d %s", swarm1, code, body)
	}

	cancel()
	for _, done := range served {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("node never shut down")
		}
	}
}

// TestGatewayFencedNodeAtStart: a gateway started over a slot whose node
// is already fenced serves none of that node's state — not even before
// its first health tick, an hour away here. Before the slot has learned
// an epoch the gateway stamps 1, so every read goes out stamped and
// meets the fence; an unstamped read would be served.
func TestGatewayFencedNodeAtStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := ingest.New(ingest.Config{Shards: 2})
	defer e.Close()
	api, bin, done := startAvaild(t, ctx, e, options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0"})
	base := "http://" + api.String()
	if err := pushBatch(base+"/v1/ingest", []ingest.Record{{SwarmID: 5, PeerID: 1, Seed: true, Online: true, Time: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, base+"/v1/healthz", cluster.EpochHeader, "7"); code != http.StatusConflict {
		t.Fatalf("stamped probe: %d %s, want 409 (the node demoting itself)", code, body)
	}

	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Nodes:       []cluster.NodeConfig{{Name: "node0", URL: base, BinAddr: bin.String()}},
		HealthEvery: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	for _, path := range []string{"/v1/summary", "/v1/swarm/5", "/v1/swarm/5/timeline"} {
		if code, body := get(t, gw.URL+path); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s from a slot fenced before the gateway started: %d %s, want 503", path, code, body)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("node never shut down")
	}
}
