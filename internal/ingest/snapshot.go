package ingest

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"
)

// Snapshot is the engine-wide lock-free read view: the merged Summary
// and windowed aggregate of every shard's published snapshot, tagged
// with an epoch (total ops applied as of the snapshot) and the derived
// HTTP ETag. Snapshots are immutable and shared between readers — treat
// every reachable structure as read-only.
type Snapshot struct {
	Summary *Summary
	Window  *WindowState
	// Epoch is the sum of the shard apply watermarks the snapshot
	// reflects. Watermarks never decrease, so equal epochs ⇒ identical
	// state and the epoch is a sound cache validator.
	Epoch uint64
	// ETag is the strong HTTP validator for this snapshot:
	// "<engine-nonce>-<epoch>". The per-incarnation nonce keeps a
	// client's cached epoch from validating against a restarted engine
	// whose watermark happens to match.
	ETag string
}

// mergedSnap memoizes one merged Snapshot keyed by the per-shard
// snapshot pointers it was built from.
type mergedSnap struct {
	parts []*shardSnap
	snap  Snapshot
}

func (m *mergedSnap) matches(parts []*shardSnap) bool {
	if len(m.parts) != len(parts) {
		return false
	}
	for i, p := range parts {
		if m.parts[i] != p {
			return false
		}
	}
	return true
}

// snapNonce returns the per-engine ETag nonce.
func snapNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return strconv.FormatUint(uint64(time.Now().UnixNano()), 16)
}

// freshSnap returns shard s's published snapshot, first nudging a
// republish through the queue when the snapshot is both behind the
// shard's apply watermark and older than SnapshotMaxAge. Loading the
// snapshot marks it wanted, which is what keeps the shard republishing
// on its own under sustained writes, so the nudge fires only for the
// first reader after a stretch nobody read in; on an idle engine the
// queue is empty and the barrier costs two channel hops. Either way the
// returned snapshot is at most SnapshotMaxAge behind the applied stream.
func (e *Engine) freshSnap(s *shard) *shardSnap {
	snap := s.snap.Load()
	if s.applied.Load() != snap.epoch && time.Since(snap.built) > e.cfg.SnapshotMaxAge {
		// The shard publishes before acknowledging (and, once closed, the
		// final publish is the complete state), so this reload observes
		// everything applied before the barrier.
		e.flush(s)
		snap = s.snap.Load()
	}
	if !s.wanted.Load() { // load first: readers share the line, only the first writes it
		s.wanted.Store(true)
	}
	return snap
}

// Snapshot returns the engine-wide read view without touching the shard
// queues (readers cost the writers nothing): one atomic load per shard,
// plus a merge that is memoized on the per-shard snapshot pointers —
// back-to-back calls under a quiet engine hit the cache
// (read_cache_hits_total) and return the identical Snapshot.
//
// The view is consistent per shard and at most SnapshotMaxAge stale; it
// may interleave shards mid-write. For a full barrier read use
// Summary/Window (the ?consistent=1 path).
func (e *Engine) Snapshot() Snapshot {
	parts := make([]*shardSnap, len(e.shards))
	for i, s := range e.shards {
		parts[i] = e.freshSnap(s)
	}
	if c := e.snapCache.Load(); c != nil && c.matches(parts) {
		e.metrics.readCacheHits.Add(1)
		return c.snap
	}
	sum := NewSummary()
	win := newWindowState()
	var epoch uint64
	for _, p := range parts {
		sum.Merge(p.sum)
		_ = win.Merge(p.win) // same engine ⇒ same geometry
		epoch += p.epoch
	}
	snap := Snapshot{
		Summary: sum,
		Window:  win,
		Epoch:   epoch,
		ETag:    fmt.Sprintf("%q", e.snapNonce+"-"+strconv.FormatUint(epoch, 10)),
	}
	e.snapCache.Store(&mergedSnap{parts: parts, snap: snap})
	return snap
}

// Window is the barrier (?consistent=1) counterpart of
// Snapshot().Window: a flush, then a fresh merge of the published shard
// windows. It observes everything submitted before the call.
func (e *Engine) Window() *WindowState {
	e.Flush()
	win := newWindowState()
	for _, s := range e.shards {
		_ = win.Merge(s.snap.Load().win) // same engine ⇒ same geometry
	}
	return win
}

// ReadSummary and ReadWindow make *Engine a ReadView (httpapi.go): the
// epoch-tagged lock-free snapshot by default, or a barrier read under
// consistent. Barrier answers carry no ETag — they are read-your-writes
// by definition and must not validate a cache.
func (e *Engine) ReadSummary(_ context.Context, consistent bool) (*Summary, string, error) {
	if consistent {
		return e.Summary(), "", nil
	}
	snap := e.Snapshot()
	return snap.Summary, snap.ETag, nil
}

func (e *Engine) ReadWindow(_ context.Context, consistent bool) (*WindowState, string, error) {
	if consistent {
		return e.Window(), "", nil
	}
	snap := e.Snapshot()
	return snap.Window, snap.ETag, nil
}

// registerSnapshotGauges exposes the read path's health:
// ingest_snapshot_age_seconds is the worst staleness among the shard
// snapshots somebody is being served (zero when every such snapshot is
// caught up with its watermark; a snapshot no reader has loaded since
// it was published does not count, so a bulk load pages nobody);
// ingest_window_bins is the resident windowed-aggregate size across
// shards. Both read only atomics and published snapshots — never the
// shard queues — so scraping them is free for writers.
func (e *Engine) registerSnapshotGauges() {
	e.metrics.reg.GaugeFunc("ingest_snapshot_age_seconds", func() float64 {
		var worst float64
		now := time.Now()
		for _, s := range e.shards {
			snap := s.snap.Load()
			if !s.wanted.Load() || s.applied.Load() == snap.epoch {
				continue
			}
			if age := now.Sub(snap.built).Seconds(); age > worst {
				worst = age
			}
		}
		return worst
	})
	e.metrics.reg.GaugeFunc("ingest_window_bins", func() float64 {
		var n int
		for _, s := range e.shards {
			snap := s.snap.Load()
			n += len(snap.win.Fine) + len(snap.win.Coarse)
		}
		return float64(n)
	})
}
