package swarmavail

// The benchmark harness regenerates every table and figure of the paper
// at Quick scale — one benchmark per artefact, named after it — plus the
// ablation studies from DESIGN.md §4 and micro-benchmarks for the hot
// numerical and protocol paths. Headline quantities (optima,
// probabilities) are attached to the benchmark output via ReportMetric
// so `go test -bench` doubles as a results summary.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swarmavail/internal/bittorrent/bencode"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/bittorrent/wire"
	"swarmavail/internal/core"
	"swarmavail/internal/dist"
	"swarmavail/internal/experiments"
	"swarmavail/internal/ingest"
	"swarmavail/internal/queue"
	"swarmavail/internal/swarm"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// benchDriver runs one experiment driver per iteration and reports the
// headline the driver recorded under the key metric ("" reports none).
func benchDriver(b *testing.B, id string, metric string) {
	b.Helper()
	d, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown driver %q", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := d.Run(experiments.Quick, int64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if metric == "" {
		return
	}
	v, ok := last.Value(metric)
	if !ok {
		b.Fatalf("%s records no headline %q", id, metric)
	}
	b.ReportMetric(v, metric)
}

// ---------------------------------------------------------------------------
// One benchmark per paper artefact.

func BenchmarkFig1SeedAvailabilityCDF(b *testing.B) {
	benchDriver(b, "fig1", "pct_fully_seeded_month1")
}

func BenchmarkSec23BundlingExtent(b *testing.B) {
	benchDriver(b, "sec2.3", "pct_seedless_bundles")
}

func BenchmarkFig2SamplePath(b *testing.B) {
	benchDriver(b, "fig2", "busy_periods")
}

func BenchmarkFig3DownloadTimeVsK(b *testing.B) {
	benchDriver(b, "fig3", "optimal_K_at_900")
}

func BenchmarkFig4SeedlessAvailability(b *testing.B) {
	benchDriver(b, "fig4", "peers_served_K10")
}

func BenchmarkTableBmResidualBusyPeriods(b *testing.B) {
	benchDriver(b, "table-bm", "")
}

func BenchmarkFig5PeerTimelines(b *testing.B) {
	benchDriver(b, "fig5", "")
}

func BenchmarkFig6aDownloadTimeVsK(b *testing.B) {
	benchDriver(b, "fig6a", "testbed_optimal_K")
}

func BenchmarkFig6bHeterogeneousUploads(b *testing.B) {
	benchDriver(b, "fig6b", "optimal_K")
}

func BenchmarkFig6cHeterogeneousDemand(b *testing.B) {
	benchDriver(b, "fig6c", "bundle_mean_s")
}

func BenchmarkFig7ArrivalPatterns(b *testing.B) {
	benchDriver(b, "fig7", "")
}

func BenchmarkTheoremScalingLaws(b *testing.B) {
	benchDriver(b, "scaling-laws", "doubling_ratio")
}

func BenchmarkFluidBaselineComparison(b *testing.B) {
	benchDriver(b, "fluid-baseline", "avail_model_optimum")
}

func BenchmarkEq16ModelValidation(b *testing.B) {
	// The §4.3.1 validation curve evaluated directly from the model.
	tb := experiments.Sec43
	model := tb.Model(tb.Lambda, tb.SizeKB)
	var best int
	for i := 0; i < b.N; i++ {
		best, _ = model.OptimalBundleSizeThreshold(8, tb.Threshold, core.ConstantPublisher)
	}
	b.ReportMetric(float64(best), "model_optimal_K")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4).

func BenchmarkAblationCoverageThreshold(b *testing.B) {
	benchDriver(b, "ablation-threshold", "")
}

func BenchmarkAblationPatience(b *testing.B) {
	benchDriver(b, "ablation-patience", "")
}

func BenchmarkAblationLingering(b *testing.B) {
	benchDriver(b, "ablation-lingering", "")
}

func BenchmarkAblationArrivalPattern(b *testing.B) {
	benchDriver(b, "ablation-arrivals", "")
}

func BenchmarkAblationPieceSelection(b *testing.B) {
	benchDriver(b, "ablation-pieces", "")
}

func BenchmarkAblationBusyPeriodModel(b *testing.B) {
	benchDriver(b, "ablation-busyperiod", "")
}

func BenchmarkAblationWaitingGroup(b *testing.B) {
	benchDriver(b, "ablation-waitinggroup", "")
}

func BenchmarkAblationDistributions(b *testing.B) {
	benchDriver(b, "ablation-distributions", "")
}

func BenchmarkAblationTraffic(b *testing.B) {
	benchDriver(b, "ablation-traffic", "overhead_K4")
}

func BenchmarkAblationImpatience(b *testing.B) {
	benchDriver(b, "ablation-impatience", "")
}

func BenchmarkAblationUnchokeSlots(b *testing.B) {
	benchDriver(b, "ablation-slots", "")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.

func BenchmarkEq9BusyPeriod(b *testing.B) {
	// The Figure 3 hot spot: one eq. (9) evaluation at bundle scale.
	p := experiments.Fig3Params
	p.R = 1.0 / 900
	bundle := p.Bundle(8, core.ConstantPublisher)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bundle.BusyPeriod()
	}
}

func BenchmarkResidualBusyPeriodTable(b *testing.B) {
	tb := experiments.Sec42
	k6 := tb.Model(tb.Lambda, tb.SizeKB).Bundle(6, core.ScaledPublisher)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k6.SteadyStateResidualBusyPeriod(tb.Threshold)
	}
}

func BenchmarkSwarmSimulatorK4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Sec43.Swarm(experiments.Sec43.Files(4), int64(i), 8000)
		cfg.ArrivalCutoff = 1200
		if _, err := swarm.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMGInfBusyPeriodSimulation(b *testing.B) {
	r := dist.NewRand(1)
	cfg := queue.BusyPeriodConfig{
		Beta:    0.02,
		First:   dist.Exponential{Rate: 1.0 / 300},
		Service: dist.Exponential{Rate: 1.0 / 80},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = queue.SimulateBusyPeriods(r, cfg, 100)
	}
}

func BenchmarkBencodeRoundTrip(b *testing.B) {
	v := map[string]any{
		"announce": "http://127.0.0.1:7070/announce",
		"info": map[string]any{
			"name":         "bundle",
			"piece length": int64(262144),
			"pieces":       strings.Repeat("01234567890123456789", 64),
			"files": []any{
				map[string]any{"length": int64(4000000), "path": []any{"ep1.avi"}},
				map[string]any{"length": int64(4000000), "path": []any{"ep2.avi"}},
			},
		},
	}
	enc, err := bencode.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc2, err := bencode.Encode(v)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bencode.Decode(enc2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireMessageRoundTrip(b *testing.B) {
	block := make([]byte, 16*1024)
	rand.New(rand.NewSource(1)).Read(block)
	msg := &wire.Message{Type: wire.MsgPiece, Index: 3, Begin: 0, Block: block}
	var buf bytes.Buffer
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackerAnnounce(b *testing.B) {
	srv := tracker.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var ih [20]byte
	req := tracker.AnnounceRequest{
		TrackerURL: ts.URL + "/announce",
		InfoHash:   ih,
		Port:       7000,
		Left:       1000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(req.PeerID[:], strconv.Itoa(i%500))
		if _, err := tracker.AnnounceWith(ts.Client(), nil, req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOps converts a pre-generated availability campaign to monitor
// ops once per benchmark process.
func benchOps() []ingest.Op {
	traces := GenerateStudy(DefaultStudyConfig(2000, 42))
	var ops []ingest.Op
	for _, t := range traces {
		ops = append(ops, ingest.TraceOps(t)...)
	}
	return ops
}

// BenchmarkIngest measures the streaming-analytics hot path
// (internal/ingest): a pre-generated availability campaign pushed
// through the sharded engine by one producer each iteration.
// Sub-benchmarks compare a single shard against 8 so future PRs can
// track both raw apply cost and sharding speed-up; records/sec is
// attached as a metric (computed from wall time, so it is exactly as
// stable as ns/op).
func BenchmarkIngest(b *testing.B) {
	ops := benchOps()
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := ingest.New(ingest.Config{Shards: shards})
				w := e.NewWriter()
				for _, op := range ops {
					w.Put(op)
				}
				w.Flush()
				e.Flush()
				e.Close()
			}
			b.ReportMetric(float64(len(ops))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
			b.ReportMetric(float64(len(ops)), "records/op")
		})
	}
}

// BenchmarkIngestParallel is the multi-producer variant: GOMAXPROCS
// concurrent writers feed one engine, traces dealt round-robin so each
// swarm's ops stay with one producer (the ordering contract). This is
// the configuration the shard-scaling acceptance numbers come from —
// a single producer saturates before 8 shards do.
func BenchmarkIngestParallel(b *testing.B) {
	traces := GenerateStudy(DefaultStudyConfig(2000, 42))
	producers := runtime.GOMAXPROCS(0)
	parts := make([][]ingest.Op, producers)
	var total int
	for i, t := range traces {
		ops := ingest.TraceOps(t)
		parts[i%producers] = append(parts[i%producers], ops...)
		total += len(ops)
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := ingest.New(ingest.Config{Shards: shards})
				var wg sync.WaitGroup
				for _, part := range parts {
					wg.Add(1)
					go func(part []ingest.Op) {
						defer wg.Done()
						w := e.NewWriter()
						for _, op := range part {
							w.Put(op)
						}
						w.Flush()
					}(part)
				}
				wg.Wait()
				e.Flush()
				e.Close()
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
			b.ReportMetric(float64(total), "records/op")
		})
	}
}

// BenchmarkMixedReadWrite is the read-path-scale acceptance benchmark:
// GOMAXPROCS producers stream the campaign into an 8-shard engine with
// a snapshot query interleaved every 128 records — each query a full
// Snapshot() merge plus summary/windowed-response rendering, i.e. what
// /v1/summary and /v1/availability/window cost the engine. The
// interleave makes the query load deterministic (free-running reader
// goroutines starve unpredictably at low GOMAXPROCS, turning the metric
// into a scheduler lottery); the actual readers-race-writers
// concurrency is exercised by TestSnapshotReadersRaceWritersAndClose.
// Queries ride the lock-free snapshot path and never touch the shard
// queues, so ingest records/sec must stay within 10% of the write-only
// BenchmarkIngestParallel/shards=8 number while queries/sec clears 10⁴
// — both attached as metrics.
func BenchmarkMixedReadWrite(b *testing.B) {
	traces := GenerateStudy(DefaultStudyConfig(2000, 42))
	producers := runtime.GOMAXPROCS(0)
	parts := make([][]ingest.Op, producers)
	var total int
	for i, t := range traces {
		ops := ingest.TraceOps(t)
		parts[i%producers] = append(parts[i%producers], ops...)
		total += len(ops)
	}
	const queryEvery = 128
	b.ReportAllocs()
	var queries atomic.Int64
	for i := 0; i < b.N; i++ {
		e := ingest.New(ingest.Config{Shards: 8})
		var wg sync.WaitGroup
		for _, part := range parts {
			wg.Add(1)
			go func(part []ingest.Op) {
				defer wg.Done()
				w := e.NewWriter()
				for j, op := range part {
					w.Put(op)
					if j%queryEvery == 0 {
						snap := e.Snapshot()
						_ = snap.Summary.Headlines()
						_ = ingest.NewWindowResponse(snap.Window, 1)
						queries.Add(1)
					}
				}
				w.Flush()
			}(part)
		}
		wg.Wait()
		e.Flush()
		e.Close()
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(total), "records/op")
	b.ReportMetric(float64(queries.Load())/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkSnapshotPublish measures what a read costs the apply path:
// one batch touching `dirty` swarms and the flush that publishes it, on
// a single shard holding `swarms` seeded, registered swarms. The publish
// corrects the live aggregates for the dirty swarms only, so at a fixed
// dirty count ns/op should not follow the resident count — the
// swarms=66000/swarms=2000 ratio at dirty=1 is the figure to watch
// (a ratio within one run; the absolutes are this machine's).
func BenchmarkSnapshotPublish(b *testing.B) {
	for _, swarms := range []int{2000, 66000} {
		e := ingest.New(ingest.Config{Shards: 1})
		w := e.NewWriter()
		for id := 0; id < swarms; id++ {
			w.Put(ingest.MetaOp(trace.SwarmMeta{ID: id}, 60))
			w.Observe(ingest.Record{SwarmID: id, PeerID: 1, Seed: true, Online: true, Time: float64(id%40) / 4})
		}
		w.Flush()
		e.Flush()
		for _, dirty := range []int{1, swarms / 100, swarms} {
			b.Run(fmt.Sprintf("swarms=%d/dirty=%d", swarms, dirty), func(b *testing.B) {
				b.ReportAllocs()
				ops := make([]ingest.Op, dirty)
				for i := 0; i < b.N; i++ {
					for j := range ops {
						// A leecher event a little later each round: the
						// swarm's open seeded interval, and so both of its
						// sketch observations, move with it.
						ops[j] = ingest.EventOp(ingest.Record{SwarmID: j, PeerID: 2, Online: i%2 == 0, Time: 10 + float64(i)/1000})
					}
					if err := e.Submit(ops); err != nil {
						b.Fatal(err)
					}
					e.Flush()
				}
			})
		}
		e.Close()
	}
}

// BenchmarkStudyApply is the apply path at the paper's scale: the
// steady-66k workload's preload (seed 1) — 66 000 registrations, then
// every publisher session transition of the study in global time order —
// through a 2-shard in-memory engine from one producer. ns/event is the
// preload's wall time per event; heap-B/swarm is what the loaded engine
// keeps per swarm after two collections, the in-process twin of the
// benchmark's ingest.heap_bytes_per_swarm.
func BenchmarkStudyApply(b *testing.B) {
	const swarms = 66000
	traces := GenerateStudy(DefaultStudyConfig(swarms, 1))
	type event struct {
		t      float64
		i      int32 // position before the sort
		swarm  int32
		online bool
	}
	var events []event
	for _, t := range traces {
		for _, s := range t.SeedSessions {
			id := int32(t.Meta.ID)
			events = append(events, event{s.Start, int32(len(events)), id, true}, event{s.End, int32(len(events) + 1), id, false})
		}
	}
	// Ties broken by input position: the order of a stable sort (a
	// swarm's back-to-back sessions keep off-before-on order at equal
	// times) at the cost of an unstable one.
	slices.SortFunc(events, func(x, y event) int {
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var perSwarm float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heap()
		b.StartTimer()
		e := ingest.New(ingest.Config{Shards: 2})
		w := e.NewWriter()
		for _, t := range traces {
			w.Put(ingest.MetaOp(t.Meta, t.MonitoredDays))
		}
		for _, ev := range events {
			w.Put(ingest.EventOp(ingest.Record{SwarmID: int(ev.swarm), PeerID: uint64(ev.swarm)<<1 | 1, Seed: true, Online: ev.online, Time: ev.t}))
		}
		w.Flush()
		e.Flush()
		b.StopTimer()
		perSwarm = (float64(heap()) - float64(before)) / swarms
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	b.ReportMetric(perSwarm, "heap-B/swarm")
}

// benchRecords builds a deterministic monitor-record campaign shared by
// the ingest protocol benchmarks.
func benchRecords(n int) []ingest.Record {
	recs := make([]ingest.Record, n)
	for i := range recs {
		recs[i] = ingest.Record{
			SwarmID: i % 499,
			PeerID:  uint64(i%97 + 1),
			Seed:    i%3 == 0,
			Online:  i%7 != 6,
			Time:    float64(i%1000) / 10,
		}
	}
	return recs
}

// BenchmarkIngestStream compares the two ingest wire protocols end to
// end on identical 8-shard engines: JSONL batches over POST /v1/ingest
// (the handler's scanner-decode-then-Submit core) versus the
// length-framed binary stream (DESIGN.md §12) through a StreamClient
// over real loopback TCP. Each iteration pushes the same campaign into
// a fresh engine; records/sec is the acceptance metric — the binary
// stream must hold ≥5× the JSON path's throughput.
func BenchmarkIngestStream(b *testing.B) {
	const total, batch = 16384, 512
	recs := benchRecords(total)

	b.Run("json-http", func(b *testing.B) {
		var e *ingest.Engine
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sc := trace.NewScanner[ingest.Record](r.Body)
			var ops []ingest.Op
			for sc.Scan() {
				ops = append(ops, ingest.EventOp(sc.Record()))
			}
			if err := sc.Err(); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := e.Submit(ops); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintf(w, `{"accepted":%d}`, len(ops))
		}))
		defer srv.Close()
		client := ingest.NewHTTPClient(ingest.HTTPClientConfig{BaseURL: srv.URL, MaxAttempts: 2})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e = ingest.New(ingest.Config{Shards: 8})
			b.StartTimer()
			for off := 0; off < total; off += batch {
				if err := client.Push(context.Background(), recs[off:off+batch]); err != nil {
					b.Fatal(err)
				}
			}
			e.Flush()
			b.StopTimer()
			e.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})

	b.Run("binary-stream", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := ingest.New(ingest.Config{Shards: 8})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			ss := ingest.NewStreamServer(e, nil)
			done := make(chan struct{})
			go func() { defer close(done); _ = ss.Serve(ln) }()
			b.StartTimer()
			c := ingest.NewStreamClient(ingest.StreamClientConfig{
				Addr:      ln.Addr().String(),
				BatchSize: batch,
			})
			for _, rec := range recs {
				if err := c.Observe(rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
			e.Flush()
			b.StopTimer()
			ln.Close()
			ss.Close()
			<-done
			e.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})
}

// BenchmarkTraceDecode compares the two JSONL decode paths on the same
// archived campaign: the sequential json.Decoder Scanner versus the
// order-preserving parallel worker-pool decoder replay and analysis now
// run on.
func BenchmarkTraceDecode(b *testing.B) {
	traces := GenerateStudy(DefaultStudyConfig(2000, 42))
	var buf bytes.Buffer
	if err := trace.WriteTraces(&buf, traces); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	run := func(b *testing.B, open func() trace.Source[trace.SwarmTrace]) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		var n int
		for i := 0; i < b.N; i++ {
			sc := open()
			n = 0
			for sc.Scan() {
				n++
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			if n != len(traces) {
				b.Fatalf("decoded %d records, want %d", n, len(traces))
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	}
	b.Run("scanner", func(b *testing.B) {
		run(b, func() trace.Source[trace.SwarmTrace] {
			return trace.NewTraceScanner(bytes.NewReader(data))
		})
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, func() trace.Source[trace.SwarmTrace] {
			return trace.NewParallelTraceScanner(bytes.NewReader(data), 0)
		})
	})
}

// BenchmarkWALAppend measures the durable-ingest journal's append path
// — frame framing, CRC, buffered write and segment rotation — with
// fsync off, so the number tracks the code, not the CI runner's disk.
// Sub-benchmark "sync" appends through a real fsync per append (the
// default acked⇒durable policy); its absolute value is storage-bound
// and noisy, but a large allocs/op jump still names itself.
// "sync-group16" appends the same frames sixteen to a call — the group
// commit the stream server does over its backlog — so the fsync
// amortisation has a number that does not need the full stack.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	rand.New(rand.NewSource(9)).Read(payload)
	run := func(b *testing.B, policy wal.SyncPolicy, group int) {
		log, _, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		frames := make([][]byte, group)
		for i := range frames {
			frames[i] = payload
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		// One op is one frame whatever the group size, so the cases
		// compare directly: sync-group16 pays one fsync per 16 ops.
		for i := 0; i < b.N; i += group {
			if _, err := log.Append(frames[:min(group, b.N-i)]...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nosync", func(b *testing.B) { run(b, wal.SyncNone, 1) })
	b.Run("sync", func(b *testing.B) { run(b, wal.SyncEachAppend, 1) })
	b.Run("sync-group16", func(b *testing.B) { run(b, wal.SyncEachAppend, 16) })
}

func BenchmarkStudyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenerateStudy(DefaultStudyConfig(2000, int64(i)))
	}
}

func BenchmarkSnapshotGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenerateSnapshot(SnapshotConfig{Seed: int64(i), NumSwarms: 5000})
	}
}
