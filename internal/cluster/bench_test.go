package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"swarmavail/internal/ingest"
)

// BenchmarkGatewayIngest measures end-to-end gateway throughput: HTTP
// in, ring partitioning, per-node fan-out over HTTP, engine Submit on
// every node. Three in-process nodes, batches of 512 records.
func BenchmarkGatewayIngest(b *testing.B) {
	nodes := make([]NodeConfig, 3)
	for i := range nodes {
		n := startTestNode(ingest.Config{Shards: 2, BatchSize: 256})
		b.Cleanup(func() { n.srv.Close(); n.e.Close() })
		nodes[i] = NodeConfig{URL: n.srv.URL}
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
