// Time-windowed availability aggregates: each swarm keeps a small ring
// of time bins recording how much of each bin the swarm was observed
// (tracked), how much of that time it was seeded (covered), how many
// busy periods started in it, and how many monitor events landed in it.
// Old fine bins downsample into coarser bins and eventually age out, so
// resident window state is bounded per swarm regardless of stream
// length.
//
// # Merge algebra
//
// Bin contents are integer fixed-point: a contribution of d days to a
// bin of width winBinDays is quantized once, on the swarm's home shard, to
// round(d/winBinDays · winUnitsPerBin) units. Everything downstream —
// folding fine bins into coarse ones, folding swarms into a shard
// WindowState, merging shard states into an engine state, merging node
// states at the cluster gateway — is integer addition keyed by absolute
// bin index, which commutes and associates exactly. Because a swarm's
// ring is a function of that swarm's own event stream alone (eviction
// included), and cluster partitioning keeps swarms whole, a merged
// clustered WindowState is identical — and renders byte-identical — to
// the WindowState of a single engine that saw the whole stream.
package ingest

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// winUnitsPerBin is the fixed-point scale: the number of integer units
// in one full bin width. 2^30 units ≈ 0.08ms resolution on a one-day
// bin — far below the float64 noise floor of the inputs.
const winUnitsPerBin = 1 << 30

// winBin is one time bin of one swarm's ring. The JSON tags are the
// checkpoint format: a winBinRecord embeds the bin as it is.
type winBin struct {
	Covered uint64 `json:"c,omitempty"` // seeded time, in winUnitsPerBin-ths of the bin width
	Tracked uint64 `json:"t,omitempty"` // observed time, same units
	Busy    uint64 `json:"b,omitempty"` // busy periods (0→1 seed transitions) starting here
	Events  uint64 `json:"e,omitempty"` // monitor events timestamped here
}

func (b *winBin) zero() bool {
	return b.Covered|b.Tracked|b.Busy|b.Events == 0
}

// The window geometry: winFineBins bins of winBinDays days at full
// resolution, behind them winCoarseBins bins winFoldFactor× wider (64
// day-bins, then 32 × 8-day bins: 320 days, the paper's whole campaign),
// nothing beyond. These are constants, not configuration, because every
// shard, node and checkpoint must agree on them forever: they are part
// of the cluster's merge contract (WindowState.Merge refuses a state cut
// to another geometry) and of the checkpoint format (ring bins are stored
// by absolute index). Changing any of them is a format change: bump
// checkpointVersion. Being powers of two also lets the hottest loop in
// the node address a slot with a mask and a shift.
const (
	winBinDays    = 1.0
	winFineBins   = 64
	winFoldFactor = 8
	winCoarseBins = 32

	// winRetentionBins is all of it in fine-bin widths: nothing older
	// than this behind a ring's head is held anywhere.
	winRetentionBins = winFineBins + winCoarseBins*winFoldFactor
)

// winRing is one swarm's windowed history: fine bins at full
// resolution, coarse bins behind them, nothing beyond. Slots are
// addressed modularly by absolute bin index; fineHi/coarseHi are the
// newest absolute indices currently represented, so the live fine window
// is [fineHi-winFineBins+1, fineHi]. The two rings are separate
// allocations, made on a swarm's first event (DESIGN §7: one 3 KB block
// for both measured ≈20% slower on the apply path).
type winRing struct {
	fine     *[winFineBins]winBin
	coarse   *[winCoarseBins]winBin
	fineHi   int64
	coarseHi int64 // in coarse-bin units (fine index / winFoldFactor)
}

func (r *winRing) inited() bool { return r.fine != nil }

// fineSlot and coarseSlot return the ring slot of a non-negative
// absolute bin index.
func (r *winRing) fineSlot(b int64) *winBin    { return &r.fine[uint64(b)%winFineBins] }
func (r *winRing) coarseSlot(cb int64) *winBin { return &r.coarse[uint64(cb)%winCoarseBins] }

// binIndex maps a time in days to its absolute fine-bin index
// (negative times clamp to bin 0).
func binIndex(t float64) int64 {
	if t <= 0 {
		return 0
	}
	return int64(t / winBinDays)
}

// quantize converts a span of d days to integer bin units; one rounding
// per contribution, on the swarm's home shard, so downstream sums are
// exact.
func quantize(d float64) uint64 {
	if d <= 0 {
		return 0
	}
	u := math.Round(d / winBinDays * winUnitsPerBin)
	if u <= 0 {
		return 0
	}
	return uint64(u)
}

// advance moves the ring head to absolute fine bin nb, folding fine
// bins that leave the window into their coarse bins and dropping coarse
// bins that age out of retention. Allocates the rings on first touch.
func (r *winRing) advance(agg *winAgg, nb int64) {
	if nb < 0 {
		nb = 0
	}
	if !r.inited() {
		r.fine = new([winFineBins]winBin)
		r.coarse = new([winCoarseBins]winBin)
		r.fineHi = nb
		r.coarseHi = nb / winFoldFactor
		return
	}
	if nb <= r.fineHi {
		return
	}
	// Each ring drops the live indices that fall out of the window ending
	// at its new head. Only live indices are visited, which bounds either
	// loop at the ring length no matter how far the head jumps. The coarse
	// ring moves first, so evicted fine bins fold into slots that are
	// already emptied for their index.
	if nc := nb / winFoldFactor; nc > r.coarseHi {
		for cb := max(r.coarseHi-winCoarseBins+1, 0); cb <= min(nc-winCoarseBins, r.coarseHi); cb++ {
			if s := r.coarseSlot(cb); !s.zero() {
				agg.coarse.lift(s, cb)
			}
		}
		r.coarseHi = nc
	}
	for b := max(r.fineHi-winFineBins+1, 0); b <= min(nb-winFineBins, r.fineHi); b++ {
		s := r.fineSlot(b)
		if s.zero() {
			continue
		}
		bin := *s
		agg.fine.lift(s, b)
		if cb := b / winFoldFactor; cb > r.coarseHi-winCoarseBins {
			agg.coarse.land(r.coarseSlot(cb), cb, bin)
		}
	}
	r.fineHi = nb
}

// add lands units on absolute fine bin b: in the fine window directly,
// behind it via the covering coarse bin, beyond retention nowhere. The
// head must already be advanced past b.
func (r *winRing) add(agg *winAgg, b int64, bin winBin) {
	if b < 0 {
		b = 0
	}
	if b > r.fineHi-winFineBins { // b <= fineHi by the advance contract
		agg.fine.land(r.fineSlot(b), b, bin)
		return
	}
	r.addCoarse(agg, b/winFoldFactor, bin)
}

// addCoarse lands units on absolute coarse bin cb if retention still
// holds it.
func (r *winRing) addCoarse(agg *winAgg, cb int64, bin winBin) {
	if cb > r.coarseHi-winCoarseBins && cb <= r.coarseHi {
		agg.coarse.land(r.coarseSlot(cb), cb, bin)
	}
}

// accrue advances the swarm's observed clock from lo to hi days,
// crediting tracked time (and covered time when the swarm was seeded
// throughout — the caller passes the seed state in effect over the
// span) to every bin the span touches.
func (r *winRing) accrue(agg *winAgg, lo, hi float64, seeded bool) {
	if lo < 0 {
		lo = 0
	}
	head := binIndex(hi)
	r.advance(agg, head)
	if hi <= lo {
		return
	}
	// Time below the retention horizon lands nowhere; skip straight to
	// the oldest bin that can still hold it.
	b0 := max(binIndex(lo), head-winRetentionBins)
	for b := b0; b <= head; b++ {
		s := math.Max(lo, float64(b)*winBinDays)
		e := math.Min(hi, float64(b+1)*winBinDays)
		if e <= s {
			continue
		}
		u := quantize(e - s)
		bin := winBin{Tracked: u}
		if seeded {
			bin.Covered = u
		}
		r.add(agg, b, bin)
	}
}

// mark lands per-event counters (one event, optionally one busy-period
// start) on the bin containing t. The ring is initialized if this is
// the swarm's first touch.
func (r *winRing) mark(agg *winAgg, t float64, busyStart bool) {
	b := binIndex(t)
	if !r.inited() || b > r.fineHi {
		r.advance(agg, b)
	}
	bin := winBin{Events: 1}
	if busyStart {
		bin.Busy = 1
	}
	r.add(agg, b, bin)
}

// fold adds the ring's live bins into the per-index aggregation maps
// (fine and coarse keyed separately; coarse keys are coarse-bin
// indices). Each nonempty bin counts this swarm once.
func (r *winRing) fold(fine, coarse map[int64]*WindowBinState) {
	if !r.inited() {
		return
	}
	for b := max(r.fineHi-winFineBins+1, 0); b <= r.fineHi; b++ {
		if slot := r.fineSlot(b); !slot.zero() {
			foldBin(fine, b, slot)
		}
	}
	for cb := max(r.coarseHi-winCoarseBins+1, 0); cb <= r.coarseHi; cb++ {
		if slot := r.coarseSlot(cb); !slot.zero() {
			foldBin(coarse, cb, slot)
		}
	}
}

func foldBin(m map[int64]*WindowBinState, idx int64, slot *winBin) {
	agg := m[idx]
	if agg == nil {
		agg = &WindowBinState{Index: idx}
		m[idx] = agg
	}
	agg.Covered += slot.Covered
	agg.Tracked += slot.Tracked
	agg.BusyStarts += slot.Busy
	agg.Events += slot.Events
	agg.Swarms++
}

// aggSlots sizes a binAgg's direct-mapped table (a power of two). A
// shard's live bins span from its oldest retained coarse bin to its
// newest head — a few hundred indices for the study's day bins — so they
// normally all sit in the table.
const aggSlots = 512

// binAgg is the sum of one resolution's ring slots over a shard's
// swarms, kept current at apply time: every ring mutation (land, lift)
// applies the same integer delta here, so publishing the shard's window
// is a copy of the live bins instead of a fold over every swarm's ring.
//
// Bins live in a direct-mapped table indexed by the low bits of the
// absolute bin index (the fast path is a tag compare and an indexed
// add); an index whose slot is held by another live bin goes to the far
// map. A bin no swarm contributes to any more is dropped, so resident
// size follows the number of live bins, never the span of timestamps —
// a lone record a billion days ahead costs one entry.
type binAgg struct {
	dense [aggSlots]WindowBinState // a slot is live iff Swarms > 0
	far   map[int64]*WindowBinState
}

// land adds bin to one swarm's ring slot for absolute index idx and the
// same integer delta to aggregate bin idx — the one way a ring slot
// grows, so ring and aggregate cannot drift. A slot going from empty to
// nonempty is its swarm joining the bin.
func (a *binAgg) land(slot *winBin, idx int64, bin winBin) {
	if bin.zero() {
		return
	}
	s := &a.dense[idx&(aggSlots-1)]
	if s.Index != idx || s.Swarms == 0 {
		s = a.claim(idx, s)
	}
	if slot.zero() {
		s.Swarms++
	}
	slot.Covered += bin.Covered
	slot.Tracked += bin.Tracked
	slot.Busy += bin.Busy
	slot.Events += bin.Events
	s.Covered += bin.Covered
	s.Tracked += bin.Tracked
	s.BusyStarts += bin.Busy
	s.Events += bin.Events
}

// claim finds or creates bin idx off the fast path; s is its table slot,
// which holds something else or nothing.
func (a *binAgg) claim(idx int64, s *WindowBinState) *WindowBinState {
	if f := a.far[idx]; f != nil {
		return f
	}
	if s.Swarms == 0 {
		*s = WindowBinState{Index: idx}
		return s
	}
	f := &WindowBinState{Index: idx}
	if a.far == nil {
		a.far = make(map[int64]*WindowBinState)
	}
	a.far[idx] = f
	return f
}

// lift empties one swarm's nonempty ring slot for absolute index idx,
// taking its contents and the swarm out of aggregate bin idx — the one
// way a ring slot shrinks. The bin exists: the slot's contents landed
// through it.
func (a *binAgg) lift(slot *winBin, idx int64) {
	s := &a.dense[idx&(aggSlots-1)]
	inFar := s.Index != idx || s.Swarms == 0
	if inFar {
		s = a.far[idx]
	}
	s.Covered -= slot.Covered
	s.Tracked -= slot.Tracked
	s.BusyStarts -= slot.Busy
	s.Events -= slot.Events
	if s.Swarms--; s.Swarms == 0 && inFar {
		delete(a.far, idx)
	}
	*slot = winBin{}
}

// bins returns a copy of the live bins in index order.
func (a *binAgg) bins() []WindowBinState {
	n := len(a.far)
	for i := range a.dense {
		if a.dense[i].Swarms > 0 {
			n++
		}
	}
	out := make([]WindowBinState, 0, n)
	for i := range a.dense {
		if a.dense[i].Swarms > 0 {
			out = append(out, a.dense[i])
		}
	}
	for _, f := range a.far {
		out = append(out, *f)
	}
	slices.SortFunc(out, func(x, y WindowBinState) int { return cmp.Compare(x.Index, y.Index) })
	return out
}

// winAgg is a shard's live windowed aggregate: what folding every
// swarm's ring would produce, maintained incrementally.
type winAgg struct {
	fine, coarse binAgg
}

// state clones the live bins into an immutable WindowState.
func (a *winAgg) state() *WindowState {
	w := newWindowState()
	w.Fine = a.fine.bins()
	w.Coarse = a.coarse.bins()
	return w
}

// winBinRecord is the checkpoint wire form of one live ring bin: the bin
// under its absolute index.
type winBinRecord struct {
	Index int64 `json:"i"`
	winBin
}

// records returns the ring's nonempty bins in index order (nil when the
// ring was never touched). The head position is not serialized: it is
// always binIndex(lastEvent), which the swarm record carries already.
func (r *winRing) records() (fine, coarse []winBinRecord) {
	if !r.inited() {
		return nil, nil
	}
	for b := max(r.fineHi-winFineBins+1, 0); b <= r.fineHi; b++ {
		if slot := r.fineSlot(b); !slot.zero() {
			fine = append(fine, winBinRecord{Index: b, winBin: *slot})
		}
	}
	for cb := max(r.coarseHi-winCoarseBins+1, 0); cb <= r.coarseHi; cb++ {
		if slot := r.coarseSlot(cb); !slot.zero() {
			coarse = append(coarse, winBinRecord{Index: cb, winBin: *slot})
		}
	}
	return fine, coarse
}

// restore rebuilds the ring from checkpointed bins. The head comes from
// lastEvent, so a load reproduces the ring exactly. Every restored bin
// lands through the same mirror as a live one, so a checkpoint load seeds
// the shard aggregate — and through add/addCoarse, whose window tests
// are the bounds check on indices read from disk: an index the ring at
// this head has no slot for lands nowhere.
func (r *winRing) restore(agg *winAgg, lastEvent float64, fine, coarse []winBinRecord, touched bool) {
	if !touched && len(fine) == 0 && len(coarse) == 0 {
		return
	}
	r.advance(agg, binIndex(lastEvent))
	for _, rec := range coarse {
		if rec.Index >= 0 {
			r.addCoarse(agg, rec.Index, rec.winBin)
		}
	}
	for _, rec := range fine {
		if rec.Index <= r.fineHi {
			r.add(agg, rec.Index, rec.winBin)
		}
	}
}

// WindowBinState is one time bin of a mergeable WindowState: integer
// unit sums across the contributing swarms. Index is the absolute bin
// index (fine-bin units in Fine, coarse-bin units in Coarse); bin b
// covers [b·width, (b+1)·width) days.
type WindowBinState struct {
	Index      int64  `json:"i"`
	Covered    uint64 `json:"covered,omitempty"`
	Tracked    uint64 `json:"tracked,omitempty"`
	BusyStarts uint64 `json:"busy_starts,omitempty"`
	Events     uint64 `json:"events,omitempty"`
	Swarms     uint64 `json:"swarms,omitempty"`
}

// WindowState is the mergeable wire form of the windowed aggregates —
// what a node serves on GET /v1/window/state and the gateway's
// scatter-gather merges. Merging is integer addition keyed by bin
// index, so any merge order over any partition of the swarms
// reproduces the single-engine state exactly.
type WindowState struct {
	// BinDays, FoldFactor, FineBins and CoarseBins are the window
	// geometry; states only merge when all four agree.
	BinDays    float64          `json:"bin_days"`
	FoldFactor int              `json:"fold_factor"`
	FineBins   int              `json:"fine_bins"`
	CoarseBins int              `json:"coarse_bins"`
	Fine       []WindowBinState `json:"fine,omitempty"`
	Coarse     []WindowBinState `json:"coarse,omitempty"`
}

// newWindowState returns an empty state carrying this build's geometry.
func newWindowState() *WindowState {
	return &WindowState{BinDays: winBinDays, FoldFactor: winFoldFactor, FineBins: winFineBins, CoarseBins: winCoarseBins}
}

func (w *WindowState) geometryEqual(o *WindowState) bool {
	return w.BinDays == o.BinDays && w.FoldFactor == o.FoldFactor &&
		w.FineBins == o.FineBins && w.CoarseBins == o.CoarseBins
}

// Merge folds other into w. States must share geometry; a foreign
// geometry is an error, not a panic, because the inputs may come off
// the wire.
func (w *WindowState) Merge(other *WindowState) error {
	if other == nil {
		return nil
	}
	if !w.geometryEqual(other) {
		return fmt.Errorf("ingest: merging window states with different geometry (%v/%d/%d/%d vs %v/%d/%d/%d)",
			w.BinDays, w.FoldFactor, w.FineBins, w.CoarseBins,
			other.BinDays, other.FoldFactor, other.FineBins, other.CoarseBins)
	}
	w.Fine = mergeBins(w.Fine, other.Fine)
	w.Coarse = mergeBins(w.Coarse, other.Coarse)
	return nil
}

func mergeBins(a, b []WindowBinState) []WindowBinState {
	if len(b) == 0 {
		return a
	}
	m := make(map[int64]*WindowBinState, len(a)+len(b))
	for _, lists := range [2][]WindowBinState{a, b} {
		for i := range lists {
			bin := lists[i]
			agg := m[bin.Index]
			if agg == nil {
				cp := bin
				m[bin.Index] = &cp
				continue
			}
			agg.Covered += bin.Covered
			agg.Tracked += bin.Tracked
			agg.BusyStarts += bin.BusyStarts
			agg.Events += bin.Events
			agg.Swarms += bin.Swarms
		}
	}
	return sortedBins(m)
}

func sortedBins(m map[int64]*WindowBinState) []WindowBinState {
	out := make([]WindowBinState, 0, len(m))
	for _, bin := range m {
		out = append(out, *bin)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
