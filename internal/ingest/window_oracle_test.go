package ingest

import (
	"encoding/json"
	"math"
	"testing"
)

// arrayRing is the window ring as two fixed slot arrays, every slot
// stored as its value: the representation winRing's value-coded storage
// replaced, kept as the reference it must agree with on every input.
type arrayRing struct {
	fine     *[winFineBins]fineBin
	coarse   *[winCoarseBins]coarseBin
	fineHi   int64
	coarseHi int64
}

func (r *arrayRing) inited() bool { return r.fine != nil }

func (r *arrayRing) fineSlot(b int64) *fineBin      { return &r.fine[uint64(b)%winFineBins] }
func (r *arrayRing) coarseSlot(cb int64) *coarseBin { return &r.coarse[uint64(cb)%winCoarseBins] }

func (r *arrayRing) advance(agg *winAgg, nb int64) {
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

func (r *arrayRing) landFine(agg *winAgg, b int64, d winBin) {
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

func (r *arrayRing) landCoarse(agg *winAgg, cb int64, d winBin) {
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

func (r *arrayRing) add(agg *winAgg, b int64, bin winBin) {
	if b < 0 {
		b = 0
	}
	if b > r.fineHi-winFineBins {
		r.landFine(agg, b, bin)
		return
	}
	r.addCoarse(agg, b/winFoldFactor, bin)
}

func (r *arrayRing) addCoarse(agg *winAgg, cb int64, bin winBin) {
	if cb > r.coarseHi-winCoarseBins && cb <= r.coarseHi {
		r.landCoarse(agg, cb, bin)
	}
}

func (r *arrayRing) accrue(agg *winAgg, lo, hi float64, seeded bool) {
	if lo < 0 {
		lo = 0
	}
	head := binIndex(hi)
	r.advance(agg, head)
	if hi <= lo {
		return
	}
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

func (r *arrayRing) mark(agg *winAgg, t float64, busyStart bool) {
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

func (r *arrayRing) fold(fine, coarse map[int64]*WindowBinState) {
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

func (r *arrayRing) records() (fine, coarse []winBinRecord) {
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

func (r *arrayRing) restore(agg *winAgg, lastEvent float64, fine, coarse []winBinRecord, touched bool) {
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

// The ops of a FuzzWinRing script. Each is two bytes: the op byte (kind
// in the low three bits, then two flags, then a three-bit value) and an
// argument byte x.
const (
	scriptAccrue     = iota // accrue to clock + x/16 days; flag A: seeded
	scriptEvent             // accrue to clock + x/16 days, then mark there: a swarm's apply; A: seeded, B: busy start
	scriptLateMark          // mark at clock − x/2 days, behind the head; B: busy start
	scriptLongAccrue        // accrue x days (B: past the fine window first); A: seeded
	scriptJump              // move past retention (+8x days): A: by accrue, else by mark
	scriptExtreme           // mark at day 0 (A), or move the clock to the last index (binIndex's two ends)
	scriptBehind            // accrue from clock − x/8 to clock + value days: a span that starts behind the head
	scriptRestore           // checkpoint and restore both rings, with one bin at or above a slot bound added
)

// boundValues are the field values scriptRestore plants: zero, small,
// one bin width, and at, just past and far past each slot field's bound.
var boundValues = [8]uint64{0, 1, 7, winUnitsPerBin, math.MaxUint32, 1<<32 + 5, 1 << 40, math.MaxUint64}

// ringPair drives the value-coded ring and the array reference with one
// script, each landing into its own shard aggregate.
type ringPair struct {
	got     winRing
	want    arrayRing
	gotAgg  winAgg
	wantAgg winAgg
	clock   float64
}

func (p *ringPair) accrue(hi float64, seeded bool) {
	p.got.accrue(&p.gotAgg, p.clock, hi, seeded)
	p.want.accrue(&p.wantAgg, p.clock, hi, seeded)
	p.clock = max(p.clock, hi)
}

func (p *ringPair) mark(t float64, busy bool) {
	p.got.mark(&p.gotAgg, t, busy)
	p.want.mark(&p.wantAgg, t, busy)
	p.clock = max(p.clock, t)
}

// step applies one script op.
func (p *ringPair) step(op, x byte) {
	flagA, flagB, value := op&8 != 0, op&16 != 0, op>>5
	switch op & 7 {
	case scriptAccrue:
		p.accrue(p.clock+float64(x)/16, flagA)
	case scriptEvent:
		t := p.clock + float64(x)/16
		p.accrue(t, flagA)
		p.mark(t, flagB)
	case scriptLateMark:
		p.mark(p.clock-float64(x)/2, flagB)
	case scriptLongAccrue:
		hi := p.clock + float64(x)
		if flagB {
			hi += fineDays
		}
		p.accrue(hi, flagA)
	case scriptJump:
		t := p.clock + retentionDays + 8*float64(x)
		if flagA {
			p.accrue(t, flagB)
		} else {
			p.mark(t, flagB)
		}
	case scriptExtreme:
		if flagA {
			p.mark(0, flagB)
		} else {
			p.mark(winMaxBin, flagB)
		}
	case scriptBehind:
		lo, hi := max(p.clock-float64(x)/8, 0), p.clock+float64(value)
		p.got.accrue(&p.gotAgg, lo, hi, flagA)
		p.want.accrue(&p.wantAgg, lo, hi, flagA)
		p.clock = hi
	case scriptRestore:
		fine, coarse := p.want.records()
		if flagA { // start from nothing: only the planted bin
			fine, coarse = nil, nil
		}
		// The planted bin: boundValues[value] in the field x>>6 names, at an
		// index x&63 below the head (the coarse head + 1 and below with
		// flag B, reaching past retention).
		bin := winBin{Tracked: 7, Events: 1}
		*[4]*uint64{&bin.Covered, &bin.Tracked, &bin.Busy, &bin.Events}[x>>6] = boundValues[value]
		if flagB {
			coarse = append(coarse, winBinRecord{Index: p.want.coarseHi + 1 - int64(x&63), winBin: bin})
		} else {
			fine = append(fine, winBinRecord{Index: p.want.fineHi - int64(x&63), winBin: bin})
		}
		p.got, p.want = winRing{}, arrayRing{}
		p.gotAgg, p.wantAgg = winAgg{}, winAgg{}
		p.got.restore(&p.gotAgg, p.clock, fine, coarse, true)
		p.want.restore(&p.wantAgg, p.clock, fine, coarse, true)
	}
}

// diff returns what the two rings disagree on — their records, their
// fold and their shard aggregates — or "" when they agree.
func (p *ringPair) diff() string {
	parts := []string{"fine records", "coarse records", "fine fold", "coarse fold", "aggregate"}
	render := func(ring interface {
		records() (fine, coarse []winBinRecord)
		fold(fine, coarse map[int64]*WindowBinState)
	}, agg *winAgg) (out []string) {
		recFine, recCoarse := ring.records()
		fine := make(map[int64]*WindowBinState)
		coarse := make(map[int64]*WindowBinState)
		ring.fold(fine, coarse)
		for _, v := range []any{recFine, recCoarse, sortedBins(fine), sortedBins(coarse), agg.state()} {
			b, err := json.Marshal(v)
			if err != nil {
				panic(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	got, want := render(&p.got, &p.gotAgg), render(&p.want, &p.wantAgg)
	for i := range parts {
		if got[i] != want[i] {
			return parts[i] + " differ\nvalue-coded ring: " + got[i] + "\narray ring:       " + want[i]
		}
	}
	if p.got.fineHi != p.want.fineHi || p.got.coarseHi != p.want.coarseHi {
		return "heads differ"
	}
	return ""
}

// winRingScript is one script op for the seed corpus.
func winRingScript(ops ...[2]byte) []byte {
	var s []byte
	for _, op := range ops {
		s = append(s, op[0], op[1])
	}
	return s
}

// FuzzWinRing drives the value-coded ring and the array ring it replaced
// with one op script — short and multi-day accrues, late marks, busy
// starts, head jumps past the fine window and past retention, both ends
// of binIndex, and restores of bins at and above the slot bounds — and
// after every step requires equal records, equal folds and equal shard
// aggregates.
func FuzzWinRing(f *testing.F) {
	const (
		seeded = 8
		busy   = 16
	)
	// TestWinRingSaturates' two cases: a bin restored over a slot bound,
	// two more marks on it, then a move past retention.
	f.Add(winRingScript(
		[2]byte{scriptLongAccrue, 100}, [2]byte{scriptAccrue, 8},
		[2]byte{scriptRestore | seeded | 5<<5, 3<<6 | 0}, // fine bin 100: Events 2^32+5
		[2]byte{scriptEvent, 0}, [2]byte{scriptEvent, 0},
		[2]byte{scriptJump, 1}))
	f.Add(winRingScript(
		[2]byte{scriptLongAccrue, 100}, [2]byte{scriptAccrue, 8},
		[2]byte{scriptRestore | seeded | busy | 5<<5, 2<<6 | 11}, // coarse bin 2: Busy 2^32+5
		[2]byte{scriptLateMark | busy, 160}, [2]byte{scriptLateMark | busy, 160},
		[2]byte{scriptJump | seeded, 1}))
	// The head bin restored at its Tracked bound, then a span out of it
	// that leaves the fine window: its piece must land after the move, on
	// the coarse bin, not be cut by the full fine slot first.
	f.Add(winRingScript(
		[2]byte{scriptLongAccrue, 10}, [2]byte{scriptAccrue, 8},
		[2]byte{scriptRestore | seeded | 4<<5, 1<<6 | 0}, // fine bin 10: Tracked 2^32−1
		[2]byte{scriptLongAccrue | busy, 3}))
	// A seeded stretch with events, across the fine window and into the
	// coarse ring, then a checkpoint of it.
	f.Add(winRingScript(
		[2]byte{scriptEvent | busy, 3}, [2]byte{scriptEvent | seeded, 40}, [2]byte{scriptLongAccrue | seeded, 9},
		[2]byte{scriptEvent, 200}, [2]byte{scriptLongAccrue | busy, 30}, [2]byte{scriptLateMark, 90},
		[2]byte{scriptRestore | 7<<5, 1<<6 | 2}, [2]byte{scriptBehind | seeded | 3<<5, 12},
		[2]byte{scriptExtreme | seeded, 0}, [2]byte{scriptExtreme, 0}, [2]byte{scriptEvent, 16}))
	f.Fuzz(func(t *testing.T, script []byte) {
		var p ringPair
		for i := 0; i+1 < len(script); i += 2 {
			p.step(script[i], script[i+1])
			if d := p.diff(); d != "" {
				t.Fatalf("after op %d (%#02x %d):\n%s", i/2, script[i], script[i+1], d)
			}
		}
	})
}
