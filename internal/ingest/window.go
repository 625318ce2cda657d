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
//
// A ring slot is narrower than the value that lands on it (fineBin,
// coarseBin), so a slot field saturates: a delta is cut to the room left
// in the slot before it is added anywhere. The cut depends on the slot
// alone, so the ring stays a function of the swarm's own stream and every
// sum downstream stays exact over what the rings hold.
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

// winBin is the contents of one time bin of one swarm as a value: the
// delta an event lands, what a slot held when it is lifted, a checkpointed
// bin. The JSON tags are the checkpoint format: a winBinRecord embeds the
// bin as it is.
type winBin struct {
	Covered uint64 `json:"c,omitempty"` // seeded time, in winUnitsPerBin-ths of the bin width
	Tracked uint64 `json:"t,omitempty"` // observed time, same units
	Busy    uint64 `json:"b,omitempty"` // busy periods (0→1 seed transitions) starting here
	Events  uint64 `json:"e,omitempty"` // monitor events timestamped here
}

func (b *winBin) zero() bool {
	return b.Covered|b.Tracked|b.Busy|b.Events == 0
}

// fineBin is a fine ring slot: 16 bytes, four to a cache line. A day-bin
// holds at most one bin width of time (winUnitsPerBin = 2^30 units, plus
// rounding), so 32 bits carry it with room to spare; the counters
// saturate at 2^32-1 events (or busy starts) per swarm per bin.
type fineBin struct {
	Covered, Tracked, Busy, Events uint32
}

func (s *fineBin) zero() bool { return s.Covered|s.Tracked|s.Busy|s.Events == 0 }

func (s *fineBin) wide() winBin {
	return winBin{Covered: uint64(s.Covered), Tracked: uint64(s.Tracked), Busy: uint64(s.Busy), Events: uint64(s.Events)}
}

// coarseBin is a coarse ring slot: 24 bytes. It sums winFoldFactor fine
// bins, so its time fields keep 64 bits; its counters saturate like a
// fine slot's.
type coarseBin struct {
	Covered, Tracked uint64
	Busy, Events     uint32
}

func (s *coarseBin) zero() bool { return s.Covered|s.Tracked|uint64(s.Busy|s.Events) == 0 }

func (s *coarseBin) wide() winBin {
	return winBin{Covered: s.Covered, Tracked: s.Tracked, Busy: uint64(s.Busy), Events: uint64(s.Events)}
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
// allocations (1 024 B and 768 B, both exact size classes), made on a
// swarm's first event (DESIGN §7: one block for both measured ≈20% slower
// on the apply path).
type winRing struct {
	fine     *[winFineBins]fineBin
	coarse   *[winCoarseBins]coarseBin
	fineHi   int64
	coarseHi int64 // in coarse-bin units (fine index / winFoldFactor)
}

func (r *winRing) inited() bool { return r.fine != nil }

// fineSlot and coarseSlot return the ring slot of a non-negative
// absolute bin index.
func (r *winRing) fineSlot(b int64) *fineBin      { return &r.fine[uint64(b)%winFineBins] }
func (r *winRing) coarseSlot(cb int64) *coarseBin { return &r.coarse[uint64(cb)%winCoarseBins] }

// winMaxBin is the largest absolute fine-bin index: binIndex saturates
// there. Converting a float64 of 2^63 or more to int64 is
// implementation-defined in Go (amd64 and arm64 disagree), which would
// let one swarm's ring differ between the nodes of a mixed cluster; 2^62
// leaves every index sum the ring computes inside int64.
const winMaxBin = 1 << 62

// binIndex maps a time in days to its absolute fine-bin index. It is
// total: negative times and NaN clamp to bin 0, times past winMaxBin
// (+Inf included) to winMaxBin.
func binIndex(t float64) int64 {
	b := t / winBinDays
	if !(b > 0) {
		return 0
	}
	if b >= winMaxBin {
		return winMaxBin
	}
	return int64(b)
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
		r.fine = new([winFineBins]fineBin)
		r.coarse = new([winCoarseBins]coarseBin)
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
				agg.coarse.lift(cb, s.wide())
				*s = coarseBin{}
			}
		}
		r.coarseHi = nc
	}
	for b := max(r.fineHi-winFineBins+1, 0); b <= min(nb-winFineBins, r.fineHi); b++ {
		s := r.fineSlot(b)
		if s.zero() {
			continue
		}
		bin := s.wide()
		agg.fine.lift(b, bin)
		*s = fineBin{}
		if cb := b / winFoldFactor; cb > r.coarseHi-winCoarseBins {
			r.landCoarse(agg, cb, bin)
		}
	}
	r.fineHi = nb
}

// landFine and landCoarse are the one way a slot of their ring grows:
// fit the delta to the room left in the slot, mirror what fits into the
// shard aggregate, add it to the slot. The aggregate therefore receives
// exactly what the slot received — at the saturation bound too — and lift
// later takes exactly that back out. (^x is the room above an unsigned x;
// the coarse slot's 64-bit fields are fitted like the rest, so no field
// of any slot can wrap.)
func (r *winRing) landFine(agg *winAgg, b int64, d winBin) {
	s := r.fineSlot(b)
	d.Covered = min(d.Covered, uint64(^s.Covered))
	d.Tracked = min(d.Tracked, uint64(^s.Tracked))
	d.Busy = min(d.Busy, uint64(^s.Busy))
	d.Events = min(d.Events, uint64(^s.Events))
	if d.zero() {
		return
	}
	agg.fine.land(b, d, s.zero())
	s.Covered += uint32(d.Covered)
	s.Tracked += uint32(d.Tracked)
	s.Busy += uint32(d.Busy)
	s.Events += uint32(d.Events)
}

func (r *winRing) landCoarse(agg *winAgg, cb int64, d winBin) {
	s := r.coarseSlot(cb)
	d.Covered = min(d.Covered, ^s.Covered)
	d.Tracked = min(d.Tracked, ^s.Tracked)
	d.Busy = min(d.Busy, uint64(^s.Busy))
	d.Events = min(d.Events, uint64(^s.Events))
	if d.zero() {
		return
	}
	agg.coarse.land(cb, d, s.zero())
	s.Covered += d.Covered
	s.Tracked += d.Tracked
	s.Busy += uint32(d.Busy)
	s.Events += uint32(d.Events)
}

// add lands units on absolute fine bin b: in the fine window directly,
// behind it via the covering coarse bin, beyond retention nowhere. The
// head must already be advanced past b.
func (r *winRing) add(agg *winAgg, b int64, bin winBin) {
	if b < 0 {
		b = 0
	}
	if b > r.fineHi-winFineBins { // b <= fineHi by the advance contract
		r.landFine(agg, b, bin)
		return
	}
	r.addCoarse(agg, b/winFoldFactor, bin)
}

// addCoarse lands units on absolute coarse bin cb if retention still
// holds it.
func (r *winRing) addCoarse(agg *winAgg, cb int64, bin winBin) {
	if cb > r.coarseHi-winCoarseBins && cb <= r.coarseHi {
		r.landCoarse(agg, cb, bin)
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
			foldBin(fine, b, slot.wide())
		}
	}
	for cb := max(r.coarseHi-winCoarseBins+1, 0); cb <= r.coarseHi; cb++ {
		if slot := r.coarseSlot(cb); !slot.zero() {
			foldBin(coarse, cb, slot.wide())
		}
	}
}

// timeline folds the swarm's ring into a WindowState of its own: the
// body of /v1/swarm/{id}/timeline.
func (s *swarmState) timeline() *WindowState {
	fine := make(map[int64]*WindowBinState)
	coarse := make(map[int64]*WindowBinState)
	s.win.fold(fine, coarse)
	w := newWindowState()
	w.Fine = sortedBins(fine)
	w.Coarse = sortedBins(coarse)
	return w
}

func foldBin(m map[int64]*WindowBinState, idx int64, bin winBin) {
	agg := m[idx]
	if agg == nil {
		agg = &WindowBinState{Index: idx}
		m[idx] = agg
	}
	agg.Covered += bin.Covered
	agg.Tracked += bin.Tracked
	agg.BusyStarts += bin.Busy
	agg.Events += bin.Events
	agg.Swarms++
}

// aggSlots sizes a binAgg's direct-mapped table (a power of two). A
// shard's live bins span from its oldest retained coarse bin to its
// newest head — a few hundred indices for the study's day bins — so they
// normally all sit in the table.
const aggSlots = 512

// binAgg is the sum of one resolution's ring slots over a shard's
// swarms, kept current at apply time: every ring mutation (landFine,
// landCoarse, advance's evictions) applies the same integer delta here
// through land and lift, so publishing the shard's window
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

// land adds to aggregate bin idx the nonzero delta one swarm's ring slot
// for that index is about to take (landFine, landCoarse). joins says the
// slot was empty: its swarm is joining the bin.
func (a *binAgg) land(idx int64, bin winBin, joins bool) {
	s := &a.dense[idx&(aggSlots-1)]
	if s.Index != idx || s.Swarms == 0 {
		s = a.claim(idx, s)
	}
	if joins {
		s.Swarms++
	}
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

// lift takes one swarm and its nonempty ring slot's contents out of
// aggregate bin idx; the caller (advance) then clears the slot — the one
// way a ring slot shrinks. The bin exists: the contents landed through it.
func (a *binAgg) lift(idx int64, bin winBin) {
	s := &a.dense[idx&(aggSlots-1)]
	inFar := s.Index != idx || s.Swarms == 0
	if inFar {
		s = a.far[idx]
	}
	s.Covered -= bin.Covered
	s.Tracked -= bin.Tracked
	s.BusyStarts -= bin.Busy
	s.Events -= bin.Events
	if s.Swarms--; s.Swarms == 0 && inFar {
		delete(a.far, idx)
	}
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
			fine = append(fine, winBinRecord{Index: b, winBin: slot.wide()})
		}
	}
	for cb := max(r.coarseHi-winCoarseBins+1, 0); cb <= r.coarseHi; cb++ {
		if slot := r.coarseSlot(cb); !slot.zero() {
			coarse = append(coarse, winBinRecord{Index: cb, winBin: slot.wide()})
		}
	}
	return fine, coarse
}

// restore rebuilds the ring from checkpointed bins. The head comes from
// lastEvent, so a load reproduces the ring exactly. Every restored bin
// lands through the same mirror as a live one, so a checkpoint load seeds
// the shard aggregate — and through add/addCoarse, whose window tests
// are the bounds check on indices read from disk (an index the ring at
// this head has no slot for lands nowhere) and whose fit is the bounds
// check on values: a bin larger than a slot can hold is cut to the slot.
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
