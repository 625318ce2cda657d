package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
)

// readPathCluster boots a 3-node cluster behind a gateway plus a
// reference engine that saw the identical stream, with every node (and
// the reference) flushed, so snapshot answers equal barrier answers.
func readPathCluster(t *testing.T, reg *obs.Registry) ([]*testNode, *Gateway, *httptest.Server, *ingest.Engine) {
	t.Helper()
	nodes := []*testNode{newTestNode(t), newTestNode(t), newTestNode(t)}
	cfg := GatewayConfig{
		Nodes: []NodeConfig{
			{Name: "n0", URL: nodes[0].srv.URL, BinAddr: nodes[0].bin},
			{Name: "n1", URL: nodes[1].srv.URL, BinAddr: nodes[1].bin},
			{Name: "n2", URL: nodes[2].srv.URL, BinAddr: nodes[2].bin},
		},
		HealthEvery: time.Hour,
		Metrics:     reg,
		Logf:        t.Logf,
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)

	ref := ingest.New(ingest.Config{Shards: 2, BatchSize: 16})
	t.Cleanup(func() { ref.Close() })
	client := ingest.NewHTTPClient(func() ingest.HTTPClientConfig {
		c := fastClient
		c.BaseURL = gw.URL
		return c
	}())
	for batch := 0; batch < 8; batch++ {
		recs := mkRecords(64, 97, batch)
		if err := client.Push(context.Background(), recs); err != nil {
			t.Fatalf("push %d: %v", batch, err)
		}
		ops := make([]ingest.Op, len(recs))
		for i, rec := range recs {
			ops[i] = ingest.EventOp(rec)
		}
		if err := ref.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		n.e.Flush()
	}
	ref.Flush()
	return nodes, g, gw, ref
}

func getTagged(t *testing.T, url, inm string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
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
	return resp.StatusCode, resp.Header.Get("ETag"), string(body)
}

func renderRef(write func(w http.ResponseWriter)) string {
	rec := httptest.NewRecorder()
	write(rec)
	return rec.Body.String()
}

// TestGatewayWindowParity: the gateway's windowed answers over a 3-node
// cluster are byte-identical to a single engine that saw the whole
// stream — on the snapshot path and on ?consistent=1.
func TestGatewayWindowParity(t *testing.T) {
	_, _, gw, ref := readPathCluster(t, nil)
	refWin := ref.Window()

	for _, d := range []string{"24h", "7", "2000"} {
		days, err := ingest.ParseWindowDays(d)
		if err != nil {
			t.Fatal(err)
		}
		want := renderRef(func(w http.ResponseWriter) { ingest.WriteWindow(w, refWin, days) })
		for _, q := range []string{"", "&consistent=1"} {
			code, _, got := getTagged(t, gw.URL+"/v1/availability/window?d="+d+q, "")
			if code != http.StatusOK {
				t.Fatalf("GET window d=%s%s: status %d", d, q, code)
			}
			if got != want {
				t.Fatalf("merged window d=%s%s diverged from single-engine answer\n--- gateway ---\n%s--- reference ---\n%s", d, q, got, want)
			}
		}
	}

	wantState := renderRef(func(w http.ResponseWriter) { ingest.WriteJSON(w, refWin) })
	for _, q := range []string{"", "?consistent=1"} {
		code, _, got := getTagged(t, gw.URL+"/v1/window/state"+q, "")
		if code != http.StatusOK {
			t.Fatalf("GET /v1/window/state%s: status %d", q, code)
		}
		if got != wantState {
			t.Fatalf("merged window state%s diverged\n--- gateway ---\n%s--- reference ---\n%s", q, got, wantState)
		}
	}
}

// TestGatewayConditionalReads pins the two cache layers: the gateway
// revalidates each node with If-None-Match (a 304 reuses the parsed
// state and counts a read_cache_hits_total), and hands its own clients
// an ETag that 304s until the cluster state actually moves.
func TestGatewayConditionalReads(t *testing.T) {
	reg := obs.NewRegistry()
	nodes, _, gw, _ := readPathCluster(t, reg)

	code, etag, body := getTagged(t, gw.URL+"/v1/summary", "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("first read: status %d etag %q", code, etag)
	}
	served := int64(0)
	for _, n := range nodes {
		served += n.reads.Load()
	}

	// Same state: the client's validator holds, and the node fleet
	// serves no new bodies (every scatter leg 304s).
	code2, etag2, _ := getTagged(t, gw.URL+"/v1/summary", etag)
	if code2 != http.StatusNotModified || etag2 != etag {
		t.Fatalf("revalidation: status %d etag %q, want 304 with %q", code2, etag2, etag)
	}
	if hits, _ := reg.Value("read_cache_hits_total"); hits < float64(len(nodes)) {
		t.Fatalf("read_cache_hits_total = %v, want ≥ %d (one 304 per node)", hits, len(nodes))
	}
	for _, n := range nodes {
		served2 := n.reads.Load()
		if served2 > served {
			t.Fatalf("a node re-served a full body on an unchanged cluster")
		}
	}

	// An unconditional re-read also rides the node caches: same bytes,
	// no new node bodies.
	code3, _, body3 := getTagged(t, gw.URL+"/v1/summary", "")
	if code3 != http.StatusOK || body3 != body {
		t.Fatalf("cached re-read diverged (status %d)", code3)
	}

	// New data moves the validator.
	n0 := nodes[0]
	if err := n0.e.Submit([]ingest.Op{ingest.EventOp(ingest.Record{SwarmID: 5, PeerID: 99, Seed: true, Online: true, Time: 50})}); err != nil {
		t.Fatal(err)
	}
	n0.e.Flush()
	code4, etag4, _ := getTagged(t, gw.URL+"/v1/summary", etag)
	if code4 != http.StatusOK || etag4 == etag || etag4 == "" {
		t.Fatalf("post-write read: status %d etag %q (old %q), want 200 with a fresh validator", code4, etag4, etag)
	}

	// Consistent reads carry no validator: every node must answer.
	code5, etag5, _ := getTagged(t, gw.URL+"/v1/summary?consistent=1", "")
	if code5 != http.StatusOK || etag5 != "" {
		t.Fatalf("consistent read: status %d etag %q, want 200 untagged", code5, etag5)
	}
}

// TestWindowSpanPastRetention: a ?d= span past the coarse ring's
// retention serves the whole coarse ring, however large the span — a bin
// count past int64 once answered an empty fine window. Checked on one
// engine's own read handlers and on the gateway over the cluster.
func TestWindowSpanPastRetention(t *testing.T) {
	nodes, _, gw, _ := readPathCluster(t, nil)
	get := func(base, d string) ingest.WindowResponse {
		t.Helper()
		code, _, body := getTagged(t, base+"/v1/availability/window?d="+d, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s window d=%s: status %d", base, d, code)
		}
		var resp ingest.WindowResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, base := range []string{nodes[0].srv.URL, gw.URL} {
		if week := get(base, "7"); week.Resolution != "fine" || len(week.Bins) == 0 {
			t.Fatalf("%s d=7: %s with %d bins, want fine bins", base, week.Resolution, len(week.Bins))
		}
		whole := get(base, "1e6")
		if whole.Resolution != "coarse" || len(whole.Bins) == 0 {
			t.Fatalf("%s d=1e6: %s with %d bins, want the coarse ring", base, whole.Resolution, len(whole.Bins))
		}
		for _, d := range []string{"1e17", "1e18", "1e300"} {
			got := get(base, d)
			if got.Resolution != whole.Resolution || got.Availability != whole.Availability || !reflect.DeepEqual(got.Bins, whole.Bins) {
				t.Fatalf("%s d=%s: %s, availability %v, %d bins; want the d=1e6 answer (%s, %v, %d bins)",
					base, d, got.Resolution, got.Availability, len(got.Bins), whole.Resolution, whole.Availability, len(whole.Bins))
			}
		}
	}
}

// TestGatewayConcurrentReadsAgree: concurrent identical snapshot-path
// reads, each revalidating every node's cached part while the others do,
// all answer 200 with the same body.
func TestGatewayConcurrentReadsAgree(t *testing.T) {
	nodes, _, gw, _ := readPathCluster(t, obs.NewRegistry())
	for _, n := range nodes {
		n.readDelay.Store(int64(50 * time.Millisecond))
	}

	const readers = 8
	bodies := make([]string, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, body := getTagged(t, gw.URL+"/v1/summary", "")
			if code != http.StatusOK {
				t.Errorf("reader %d: status %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("concurrent readers saw different bodies")
		}
	}
}

// TestReadHandlersRefuseBadQuantiles: a ?q= entry outside [0, 1] —
// NaN included, in any case and anywhere in the list — is a 400 on a
// node's read handlers and on the gateway, which serves the same set.
func TestReadHandlersRefuseBadQuantiles(t *testing.T) {
	n := newTestNode(t)
	g, err := NewGateway(GatewayConfig{
		Nodes:       []NodeConfig{{Name: "n0", URL: n.srv.URL, BinAddr: n.bin}},
		HealthEvery: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	for _, base := range []string{n.srv.URL, gw.URL} {
		if code, _, body := getTagged(t, base+"/v1/availability/cdf?q=0,0.5,1", ""); code != http.StatusOK {
			t.Fatalf("%s: q=0,0.5,1 answered %d: %s", base, code, body)
		}
		for _, q := range []string{"NaN", "nan", "0.5,NaN", "Inf", "-0.1", "1.5"} {
			if code, _, _ := getTagged(t, base+"/v1/availability/cdf?q="+url.QueryEscape(q), ""); code != http.StatusBadRequest {
				t.Errorf("%s: q=%s answered %d, want 400", base, q, code)
			}
		}
	}
}
