package ingest

import (
	"strconv"
	"time"

	"swarmavail/internal/obs"
)

// metrics owns the engine's operational instruments, all registered on
// an obs.Registry: ingest volume, per-shard applied
// counters, batch sizes and per-batch apply latency. Counter and
// histogram updates are single atomic operations — nothing on the
// per-record hot path takes a lock.
//
// The registry is the only place the engine's counts live: /metrics
// serves it, and Engine.Registry reads it.
type metrics struct {
	reg *obs.Registry

	records       *obs.Counter   // ops accepted by Submit/Writer
	deduped       *obs.Counter   // keyed ops acked without re-applying (duplicates)
	writerDropped *obs.Counter   // buffered Writer ops lost to Close
	batches       *obs.Counter   // batches applied
	applied       []*obs.Counter // ops applied, labeled shard="i"
	batchLatency  *obs.Histogram // batch apply seconds
	batchSize     *obs.Histogram // ops per batch
	batchSizeMax  *obs.Gauge     // high-water batch size
	readCacheHits *obs.Counter   // merged-snapshot reads served from cache
	publishTime   *obs.Histogram // shard snapshot publish seconds
	publishDirty  *obs.Histogram // swarms a publish visited

	// checkpointSeconds times Engine.Checkpoint end to end. Registered
	// unconditionally (zero-valued on non-durable engines) so the
	// series set is stable across configurations.
	checkpointSeconds *obs.Histogram
}

// newMetrics registers the engine's instruments on reg (a private
// registry when nil). Sharing one registry between two live engines
// merges their series; run one engine per registry.
func newMetrics(reg *obs.Registry, shards int) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &metrics{
		reg:           reg,
		records:       reg.Counter("ingest_records_total"),
		deduped:       reg.Counter("ingest_deduped_total"),
		writerDropped: reg.Counter("ingest_writer_dropped_total"),
		batches:       reg.Counter("ingest_batches_total"),
		batchLatency:  reg.Histogram("ingest_batch_apply_seconds", obs.LatencyBuckets),
		batchSize:     reg.Histogram("ingest_batch_size", obs.SizeBuckets),
		batchSizeMax:  reg.Gauge("ingest_batch_size_max"),
		readCacheHits: reg.Counter("read_cache_hits_total"),
		publishTime:   reg.Histogram("ingest_snapshot_build_seconds", obs.LatencyBuckets),
		publishDirty:  reg.Histogram("ingest_snapshot_dirty_swarms", obs.SizeBuckets),

		checkpointSeconds: reg.Histogram("checkpoint_duration_seconds", obs.LatencyBuckets),
	}
	m.applied = make([]*obs.Counter, shards)
	for i := range m.applied {
		m.applied[i] = reg.Counter("ingest_applied_total", obs.L("shard", strconv.Itoa(i)))
	}
	return m
}

// observeBatch records one batch applied by shard i.
func (m *metrics) observeBatch(shard, n int, d time.Duration) {
	m.applied[shard].Add(uint64(n))
	m.batches.Inc()
	sec := d.Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	m.batchLatency.Observe(sec)
	m.batchSize.Observe(float64(n))
	m.batchSizeMax.SetMax(float64(n))
}

// observePublish records one shard snapshot publish that visited dirty
// swarms.
func (m *metrics) observePublish(dirty int, d time.Duration) {
	m.publishTime.Observe(d.Seconds())
	m.publishDirty.Observe(float64(dirty))
}
