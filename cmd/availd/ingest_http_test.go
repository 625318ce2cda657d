package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// ingestFronts runs f against both daemons' POST /v1/ingest — a node's
// own handler (memory-only and durable), and a gateway fanning out to a
// node — over one engine. All read the request through
// ingest.ReadIngestRequest, so all owe the same verdicts and the same
// transactional guarantee.
func ingestFronts(t *testing.T, f func(t *testing.T, e *ingest.Engine, h http.Handler)) {
	t.Run("availd", func(t *testing.T) {
		e := ingest.New(ingest.Config{Shards: 2})
		defer e.Close()
		f(t, e, (&server{engine: e}).handler())
	})
	t.Run("availd durable", func(t *testing.T) {
		e, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		f(t, e, (&server{engine: e}).handler())
	})
	t.Run("availgw", func(t *testing.T) {
		e := ingest.New(ingest.Config{Shards: 2})
		defer e.Close()
		node := httptest.NewServer((&server{engine: e}).handler())
		defer node.Close()
		g, err := cluster.NewGateway(cluster.GatewayConfig{
			Nodes: []cluster.NodeConfig{{Name: "node0", URL: node.URL}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		f(t, e, g.Handler())
	})
}

// TestIngestOversizedBodyRejected pins the /v1/ingest body cap: a
// request over ingest.MaxIngestBody gets 413 (the reader recognises the
// *http.MaxBytesError behind the scanner's wrapped error), and —
// because the whole body is parsed before anything touches the engine
// or a node — the failed request leaves engine state exactly as it was.
func TestIngestOversizedBodyRejected(t *testing.T) {
	ingestFronts(t, func(t *testing.T, e *ingest.Engine, h http.Handler) {
		// Seed some accepted state so "unchanged" is a real claim.
		var seed strings.Builder
		const seeded = 25
		for i := 0; i < seeded; i++ {
			fmt.Fprintf(&seed, `{"swarm_id":%d,"peer_id":1,"seed":true,"online":true,"t":0}`+"\n", i)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(seed.String())))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed request: %d %s", rec.Code, rec.Body)
		}
		e.Flush()
		before := e.Summary().Events
		if before != seeded {
			t.Fatalf("seeded %d events, engine holds %d", seeded, before)
		}

		// One valid line, repeated past the cap: every byte the server
		// manages to read parses cleanly, so the only possible rejection is
		// the size limit itself.
		line := []byte(`{"swarm_id":999,"peer_id":2,"seed":true,"online":true,"t":1.5}` + "\n")
		big := bytes.Repeat(line, ingest.MaxIngestBody/len(line)+2)
		if len(big) <= ingest.MaxIngestBody {
			t.Fatalf("test bug: body %d bytes does not exceed cap %d", len(big), ingest.MaxIngestBody)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(big)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body: got %d %s, want 413", rec.Code, rec.Body)
		}
		// Within the byte cap but past the records one journal frame
		// carries: refused on every front alike, not journaled on one and
		// a retryable 500 on another.
		many := bytes.Repeat([]byte(`{"swarm_id":999}`+"\n"), ingest.MaxFrameOps+1)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(many)))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "records") {
			t.Fatalf("%d records: got %d %s, want 413", ingest.MaxFrameOps+1, rec.Code, rec.Body)
		}

		e.Flush()
		if after := e.Summary().Events; after != before {
			t.Fatalf("413 request changed engine state: %d events before, %d after", before, after)
		}
		if _, ok := e.Swarm(999); ok {
			t.Fatalf("swarm from the rejected request leaked into the engine")
		}
	})
}

// TestIngestMalformedBodyLeavesStateUnchanged covers the 400 arms of the
// same transactional guarantee: valid lines before a malformed one are
// not applied, and a keyed request with a bad sequence number or a
// source longer than the frame codec can journal is refused before its
// body is read — the client's error on every front, never a 200 that
// leaves a dedup window behind or a retryable 500 from the journal.
func TestIngestMalformedBodyLeavesStateUnchanged(t *testing.T) {
	ingestFronts(t, func(t *testing.T, e *ingest.Engine, h http.Handler) {
		valid := `{"swarm_id":1,"peer_id":1,"seed":true,"online":true,"t":0}` + "\n"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest",
			strings.NewReader(valid+`{"swarm_id":2,"peer_id":`+"\n")))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad record 1") {
			t.Fatalf("malformed body: got %d %s, want 400 bad record 1", rec.Code, rec.Body)
		}
		// JSON has no spelling for a non-finite time: an overflowing
		// literal is the nearest a client can get, and it is a bad record.
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest",
			strings.NewReader(valid+`{"swarm_id":2,"peer_id":1,"seed":true,"online":true,"t":1e999}`+"\n")))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad record 1") {
			t.Fatalf("overflowing time: got %d %s, want 400 bad record 1", rec.Code, rec.Body)
		}
		// A finite time past the codec's ±2^62-day bound is a bad record
		// too: a durable node could not journal it.
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest",
			strings.NewReader(valid+`{"swarm_id":2,"peer_id":1,"seed":true,"online":true,"t":-1e300}`+"\n")))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad record 1") {
			t.Fatalf("time past the bound: got %d %s, want 400 bad record 1", rec.Code, rec.Body)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(valid))
		req.Header.Set(ingest.HeaderSource, "src")
		req.Header.Set(ingest.HeaderSeq, "0")
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("zero sequence number: got %d %s, want 400", rec.Code, rec.Body)
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(valid))
		req.Header.Set(ingest.HeaderSource, strings.Repeat("s", 300))
		req.Header.Set(ingest.HeaderSeq, "1")
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("300-byte source: got %d %s, want 400", rec.Code, rec.Body)
		}
		e.Flush()
		if got := e.Summary().Events; got != 0 {
			t.Fatalf("rejected requests applied %d events; want 0", got)
		}
	})
}
