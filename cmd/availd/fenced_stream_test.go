package main

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
)

// TestStreamFencedNodeRefusesData: the epoch fence gates -ingest-bin as
// it gates the API. A leader acks a stream flush; one request stamped
// with a newer epoch fences it; the next flush on the same client is
// refused with ERR state — on the open connection and on every redial —
// until the client's retry budget is spent, and nothing of it reaches
// the engine.
func TestStreamFencedNodeRefusesData(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := ingest.New(ingest.Config{Shards: 2})
	api, bin, served := startAvaild(t, ctx, e, options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0"})
	base := "http://" + api.String()

	c := ingest.NewStreamClient(ingest.StreamClientConfig{
		Addr: bin.String(), RetryFor: 100 * time.Millisecond,
	})
	rec := ingest.Record{SwarmID: 3, PeerID: 1, Seed: true, Online: true, Time: 0.5}
	if err := c.Observe(rec); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush before the fence: %v", err)
	}
	before := fetch(t, base+"/v1/state?consistent=1")
	errsBefore := scrapeMetrics(t, api)["ingest_stream_errors_total"]

	// The gateway's post-promotion probe: any request from a newer era.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.EpochHeader, "7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stamped probe: %s, want 409 (the node demoting itself)", resp.Status)
	}

	rec.Time = 1.5
	if err := c.Observe(rec); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("a fenced node acknowledged a stream frame")
	} else {
		t.Logf("flush after the fence: %v", err)
	}
	if after := fetch(t, base+"/v1/state?consistent=1"); !bytes.Equal(after, before) {
		t.Fatalf("a fenced node applied a stream frame\nbefore: %s\nafter:  %s", before, after)
	}
	if got := scrapeMetrics(t, api)["ingest_stream_errors_total"]; got <= errsBefore {
		t.Fatalf("ingest_stream_errors_total = %v after the refusal, was %v", got, errsBefore)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("node never shut down")
	}
}
