// Package ingest is the streaming counterpart of the offline §2
// analysis pipeline (internal/trace → internal/measure): a sharded,
// batched, concurrency-safe engine that consumes monitor records as
// they arrive and maintains *online* per-swarm availability state —
// incremental busy-period and seed-availability tracking with the exact
// definitions internal/measure applies offline, mergeable availability
// quantile sketches (stats.QuantileSketch), per-category bundling
// counters, and rolling seed/leecher gauges.
//
// # Architecture
//
//	producers ──submit──▶ per-shard batch queues ──▶ shard goroutines
//	per-swarm reads ────▶ (same queues)                │ (own all state,
//	                                                   │  no locks)
//	aggregate readers ◀── published snapshots ◀────────┘
//
// Swarm state is partitioned by swarm-id hash across N shard
// goroutines, each owning its slice of the keyspace outright — the hot
// path applies batches without taking any lock. Aggregate readers never
// block writers: each shard publishes an immutable snapshot of its
// aggregates behind an atomic pointer, and a barrier read is a flush
// through the queues followed by a load of those snapshots. A per-swarm
// read (Swarm, Timeline) is a closure queued on the swarm's home shard,
// so it waits its turn behind the writes queued before it and answers
// read-your-writes. Writers commit one at a time under the engine's
// commit lock, which spans the journal append and the shard sends, so
// the journal's order is the shards' order. They stall on queue
// backpressure and, on a durable engine, for a Checkpoint's capture,
// which holds the same lock; its file write, fsync and WAL truncation
// run with writers going.
// Per-shard sketches and counters merge losslessly (integer bin counts
// and sums; see stats.QuantileSketch), which is what makes the sharded
// aggregate equal to the unsharded one.
//
// # Exactness
//
// When swarm metadata (monitoring horizon) is registered before a
// swarm's events and each swarm's events arrive in time order — both
// guaranteed by the replay helpers — the online per-swarm first-month
// and whole-trace availabilities are computed with the same clipping
// arithmetic, in the same order, as trace.SwarmTrace.AvailabilityOver,
// and therefore agree bitwise with the offline analysis. CDF quantiles
// come from a fixed-resolution sketch and agree with the exact order
// statistics within stats.QuantileSketch's documented one-bin
// tolerance (±1/4096 by default).
package ingest

import (
	"time"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
)

// Record is one monitor observation, the schema the §2 monitoring
// agents (and internal/trace's archived seed sessions) emit: a peer —
// publisher seed or leecher — transitioned online or offline in a swarm
// at a point in time.
type Record struct {
	SwarmID int `json:"swarm_id"`
	// PeerID identifies the observed peer; distinct concurrent seeds
	// union their online time, exactly as merged seed sessions do.
	PeerID uint64 `json:"peer_id"`
	// Seed marks a publisher/seed observation (false = leecher).
	Seed bool `json:"seed"`
	// Online is the transition direction: true = came online.
	Online bool `json:"online"`
	// Time is in days since the swarm's creation, the availability
	// study's clock.
	Time float64 `json:"t"`
}

// opKind discriminates the operations a shard applies.
type opKind uint8

const (
	opEvent opKind = iota
	opMeta
	opCensus
)

// Op is one unit of ingestion work: an online/offline event, a swarm
// registration (metadata + monitoring horizon), or a census
// observation. Build with EventOp, MetaOp, or CensusOp.
//
// Events — the overwhelming majority of a monitor stream — are carried
// inline; the bulky registration/census payloads live behind a pointer.
// That keeps an Op at 48 bytes instead of ~220, which matters because
// the write path moves Ops by value through per-shard batch buffers:
// batch copies are the single biggest cost on the hot path.
type Op struct {
	kind opKind
	rec  Record
	aux  *opAux // registration/census payload; nil for events
}

// opAux is the out-of-line payload of registration and census ops.
type opAux struct {
	meta    trace.SwarmMeta
	horizon float64
	census  trace.Snapshot
}

// EventOp wraps a monitor record.
func EventOp(rec Record) Op { return Op{kind: opEvent, rec: rec} }

// MetaOp registers a swarm's metadata and monitoring horizon (days).
// Registering before the swarm's events is what makes the online
// availability agree exactly with the offline analysis.
func MetaOp(meta trace.SwarmMeta, horizonDays float64) Op {
	return Op{kind: opMeta, aux: &opAux{meta: meta, horizon: horizonDays}}
}

// CensusOp records a single-day census observation (§2.3): absolute
// seed/leecher gauges, the cumulative download counter, and — on first
// sight of the swarm — its bundling classification.
func CensusOp(snap trace.Snapshot) Op { return Op{kind: opCensus, aux: &opAux{census: snap}} }

// EventRecord returns the monitor record carried by an event op
// (ok=false for registrations and census ops) — what can travel over
// the wire to a remote engine's /v1/ingest.
func (o Op) EventRecord() (Record, bool) {
	if o.kind != opEvent {
		return Record{}, false
	}
	return o.rec, true
}

// SwarmID returns the swarm the op targets.
func (o Op) SwarmID() int {
	switch o.kind {
	case opEvent:
		return o.rec.SwarmID
	case opMeta:
		return o.aux.meta.ID
	default:
		return o.aux.census.Meta.ID
	}
}

// Config parameterises the engine. The zero value selects sensible
// defaults via New.
type Config struct {
	// Shards is the number of state-owning worker goroutines
	// (default: GOMAXPROCS, min 1).
	Shards int
	// BatchSize is the Writer's flush threshold in ops (default 512).
	// Batches travel through the shard queues by ownership transfer —
	// no copy — so larger batches only amortise the channel hop; 512
	// ops ≈ 24 KiB per pooled buffer. At most MaxFrameOps.
	BatchSize int
	// Metrics is an optional observability registry the engine
	// registers its instruments on (ingest_* series). Nil means a
	// private registry, still read through Engine.Registry. Run at most
	// one live engine per registry: a second engine on the same registry
	// merges its series into the first's.
	Metrics *obs.Registry

	// queueDepth and maxAge replace shardQueueDepth and snapshotMaxAge
	// when set: tests reach for a one-slot queue or a one-nanosecond age.
	queueDepth int
	maxAge     time.Duration
}

// shardQueueDepth is the per-shard queue capacity in batches. A full
// queue stalls the submitter until the shard drains — lossless
// backpressure.
const shardQueueDepth = 128

// snapshotMaxAge bounds how stale the lock-free read snapshots may get.
// Under sustained writes each shard republishes its snapshot once this
// much time has passed since the last publish; on an idle engine a
// reader that observes a snapshot both older than this and behind the
// shard's apply watermark nudges a refresh through the queue. Either way
// a snapshot read is never more than snapshotMaxAge behind the applied
// stream.
const snapshotMaxAge = 100 * time.Millisecond

func (c Config) withDefaults(defaultShards int) Config {
	if c.Shards <= 0 {
		c.Shards = defaultShards
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	c.BatchSize = min(c.BatchSize, MaxFrameOps)
	if c.queueDepth <= 0 {
		c.queueDepth = shardQueueDepth
	}
	if c.maxAge <= 0 {
		c.maxAge = snapshotMaxAge
	}
	return c
}

// shardIndex spreads (typically sequential) swarm ids across n shards
// with a 64-bit finalizer (splitmix64's mix).
func shardIndex(swarmID, n int) int {
	x := uint64(swarmID)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
