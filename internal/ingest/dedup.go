package ingest

import (
	"slices"
	"strings"
)

// Idempotency headers shared by the HTTP client, availd's ingest
// handler, and the cluster gateway. They live here (not in
// internal/cluster) because cluster already imports ingest and the
// client stamps them on every keyed push.
const (
	// HeaderSource carries the idempotency source id (a stable name for
	// one sender) on POST /v1/ingest.
	HeaderSource = "X-Ingest-Source"
	// HeaderSeq carries the batch sequence within the source; together
	// (source, seq) name one batch across retries.
	HeaderSeq = "X-Ingest-Seq"
)

// dedupWindowSize is how many batch sequences below a source's
// high-watermark stay individually tracked. Sequences at or below
// max−dedupWindowSize are assumed already seen: a sender never has
// anywhere near this many batches in flight (retries keep their
// original seq), so anything that old can only be a replay.
const dedupWindowSize = 1024

// sourceWindow is one source's exactly-once state: the highest batch
// sequence observed plus the set of individually seen sequences inside
// the trailing window (pushes from one client can complete out of
// order, so a plain high-watermark would misclassify a late first
// attempt as a duplicate). Every window is read and written under the
// engine's commit lock.
type sourceWindow struct {
	max  uint64
	seen map[uint64]struct{}
}

// observed reports whether seq was already applied.
func (w *sourceWindow) observed(seq uint64) bool {
	if w.max >= dedupWindowSize && seq <= w.max-dedupWindowSize {
		return true
	}
	_, ok := w.seen[seq]
	return ok
}

// mark records seq as applied and evicts sequences that fell out of the
// window.
func (w *sourceWindow) mark(seq uint64) {
	if w.seen == nil {
		w.seen = make(map[uint64]struct{})
	}
	w.seen[seq] = struct{}{}
	if seq > w.max {
		w.max = seq
	}
	// Evict lazily, once the map has grown well past the window, so a
	// steady in-order stream pays one sweep per window, not per batch.
	if len(w.seen) >= 2*dedupWindowSize && w.max >= dedupWindowSize {
		floor := w.max - dedupWindowSize
		for s := range w.seen {
			if s <= floor {
				delete(w.seen, s)
			}
		}
	}
}

// dedupState is the engine's per-source window table, under the
// engine's commit lock. Sources are never evicted (a monitor fleet is a
// bounded population; see DESIGN.md §11 for the accounting).
type dedupState struct {
	sources map[string]*sourceWindow
}

// window returns source's window, creating it on first use.
func (d *dedupState) window(source string) *sourceWindow {
	if d.sources == nil {
		d.sources = make(map[string]*sourceWindow)
	}
	w, ok := d.sources[source]
	if !ok {
		w = &sourceWindow{}
		d.sources[source] = w
	}
	return w
}

// dedupRecord is one source's window in checkpoint wire form.
type dedupRecord struct {
	Source string   `json:"source"`
	Max    uint64   `json:"max"`
	Seen   []uint64 `json:"seen,omitempty"`
}

// records snapshots every window, sorted by source for deterministic
// checkpoint bytes. Checkpoint calls it in its capture, under the commit
// lock, so the windows are exactly the ones the journal's prefix
// produced.
func (d *dedupState) records() []dedupRecord {
	out := make([]dedupRecord, 0, len(d.sources))
	for source, w := range d.sources {
		rec := dedupRecord{Source: source, Max: w.max, Seen: make([]uint64, 0, len(w.seen))}
		for s := range w.seen {
			rec.Seen = append(rec.Seen, s)
		}
		slices.Sort(rec.Seen)
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b dedupRecord) int { return strings.Compare(a.Source, b.Source) })
	return out
}

// install replaces the table with recs — recovery only, before any
// producer exists.
func (d *dedupState) install(recs []dedupRecord) {
	d.sources = make(map[string]*sourceWindow, len(recs))
	for _, rec := range recs {
		w := &sourceWindow{max: rec.Max}
		if len(rec.Seen) > 0 {
			w.seen = make(map[uint64]struct{}, len(rec.Seen))
			for _, s := range rec.Seen {
				w.seen[s] = struct{}{}
			}
		}
		d.sources[rec.Source] = w
	}
}
