package cluster

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"swarmavail/internal/ingest"
)

// BenchmarkGatewayIngest measures end-to-end gateway throughput: HTTP
// in, ring partitioning, per-node fan-out over the binary stream, engine
// commit on every node. Three in-process nodes, batches of 512 records.
func BenchmarkGatewayIngest(b *testing.B) {
	nodes := make([]NodeConfig, 3)
	for i := range nodes {
		n := startTestNode(b, ingest.Config{Shards: 2, BatchSize: 256})
		nodes[i] = NodeConfig{URL: n.srv.URL, BinAddr: n.bin}
	}
	g, err := NewGateway(GatewayConfig{
		Nodes:       nodes,
		HealthEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	client := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		BaseURL:     gw.URL,
		MaxAttempts: 2,
	})
	const batch = 512
	recs := mkRecords(batch, 499, 1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Push(context.Background(), recs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkGatewayStream measures the gateway's stream front end to end:
// a monitor's StreamClient sends 512-record keyed frames, the gateway
// decodes, routes and re-encodes each share for its slot's upstream
// client, and every node commits its share. Three in-process nodes;
// one op is one frame, so allocs/op includes the monitor's envelope,
// the share envelopes and the nodes' own.
func BenchmarkGatewayStream(b *testing.B) {
	nodes := make([]NodeConfig, 3)
	for i := range nodes {
		n := startTestNode(b, ingest.Config{Shards: 2, BatchSize: 256})
		nodes[i] = NodeConfig{URL: n.srv.URL, BinAddr: n.bin}
	}
	g, err := NewGateway(GatewayConfig{
		Nodes:       nodes,
		HealthEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = g.ServeStream(ln)
	}()
	defer func() { ln.Close(); <-served }()

	const batch = 512
	mon := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: ln.Addr().String(), BatchSize: batch})
	defer mon.Abandon()
	recs := mkRecords(batch, 499, 1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			if err := mon.Observe(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := mon.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}
