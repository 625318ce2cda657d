package ingest

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"swarmavail/internal/trace"
)

// TestWinRingSlotSizes pins what a swarm's window history costs: a field
// added to the ring or to an explicit entry, or an entry widened, shows
// here before it shows as resident memory at 66 000 swarms. The inline
// ring (codes, head, slice headers) is what every touched swarm pays;
// the entries are what its explicit slots add.
func TestWinRingSlotSizes(t *testing.T) {
	for _, row := range []struct {
		what      string
		got, want uintptr
	}{
		{"fineBin", unsafe.Sizeof(fineBin{}), 16},
		{"coarseBin", unsafe.Sizeof(coarseBin{}), 24},
		{"winRing", unsafe.Sizeof(winRing{}), 136},
	} {
		if row.got != row.want {
			t.Errorf("%s is %d bytes, want %d", row.what, row.got, row.want)
		}
	}
}

// TestWinRingWorstCaseBytes: a ring whose every slot holds a value with no
// code keeps no more than the two slot arrays it replaced — 64 fine and
// 32 coarse slots, 1 792 B — beside its inline part. The input is a
// checkpoint with an event in every fine and every coarse bin, the most
// a ring can be asked to hold.
func TestWinRingWorstCaseBytes(t *testing.T) {
	const head = 1000
	var fine, coarse []winBinRecord
	for b := int64(head - winFineBins + 1); b <= head; b++ {
		fine = append(fine, winBinRecord{Index: b, winBin: winBin{Tracked: 7, Events: 1}})
	}
	for cb := int64(head/winFoldFactor - winCoarseBins + 1); cb <= head/winFoldFactor; cb++ {
		coarse = append(coarse, winBinRecord{Index: cb, winBin: winBin{Tracked: 7, Events: 1}})
	}
	var (
		r   winRing
		agg winAgg
	)
	r.restore(&agg, head+0.5, fine, coarse, true)
	if got, _ := r.records(); len(got) != winFineBins {
		t.Fatalf("restored %d fine bins, want %d", len(got), winFineBins)
	}
	// The head is inline; every other slot is an entry.
	if len(r.fineX) != winFineBins-1 || len(r.coarseX) != winCoarseBins {
		t.Fatalf("%d fine and %d coarse entries, want %d and %d", len(r.fineX), len(r.coarseX), winFineBins-1, winCoarseBins)
	}
	side := uintptr(cap(r.fineX))*unsafe.Sizeof(fineBin{}) + uintptr(cap(r.coarseX))*unsafe.Sizeof(coarseBin{})
	t.Logf("every slot explicit: %d B of entries beside a %d B ring", side, unsafe.Sizeof(r))
	if side > 1792 {
		t.Fatalf("every slot explicit keeps %d B of entries, more than the 1 792 B slot arrays", side)
	}
}

// TestWinRingSaturates pins the algebra at a narrow field's bound: a
// value larger than the slot can hold is cut on the way in, the shard
// aggregate receives exactly what the slot received, further deltas
// change neither, and eviction takes out exactly what went in — no
// underflow, no swarm left counted in a bin nobody holds.
func TestWinRingSaturates(t *testing.T) {
	const over = 1<<32 + 5
	binOf := func(bins []WindowBinState, idx int64) WindowBinState {
		for _, b := range bins {
			if b.Index == idx {
				return b
			}
		}
		return WindowBinState{}
	}
	for _, tc := range []struct {
		name         string
		fine, coarse []winBinRecord
		slot         func(*winRing) winBin
		agg          func(*winAgg) WindowBinState
		counter      func(winBin) uint64
		markAt       float64 // lands on the restored bin
		busyStart    bool
	}{
		{
			name:    "fine Events",
			fine:    []winBinRecord{{Index: 100, winBin: winBin{Tracked: 7, Events: over}}},
			slot:    func(r *winRing) winBin { return r.fine(100).wide() },
			agg:     func(a *winAgg) WindowBinState { return binOf(a.fine.bins(), 100) },
			counter: func(b winBin) uint64 { return b.Events },
			markAt:  100.5,
		},
		{
			// Day 20 is behind the fine window [37, 100]: it lands on the
			// coarse bin covering days 16–23.
			name:      "coarse Busy",
			coarse:    []winBinRecord{{Index: 2, winBin: winBin{Tracked: 7, Busy: over, Events: 1}}},
			slot:      func(r *winRing) winBin { return r.coarse(2).wide() },
			agg:       func(a *winAgg) WindowBinState { return binOf(a.coarse.bins(), 2) },
			counter:   func(b winBin) uint64 { return b.Busy },
			markAt:    20.5,
			busyStart: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				r   winRing
				agg winAgg
			)
			check := func(when string) {
				t.Helper()
				slot, mirror := tc.slot(&r), tc.agg(&agg)
				if got := tc.counter(slot); got != math.MaxUint32 {
					t.Fatalf("%s: slot reads %d, want it saturated at %d", when, got, uint32(math.MaxUint32))
				}
				if mirror.Swarms != 1 || (winBin{Covered: mirror.Covered, Tracked: mirror.Tracked, Busy: mirror.BusyStarts, Events: mirror.Events}) != slot {
					t.Fatalf("%s: aggregate bin %+v is not the slot %+v counted once", when, mirror, slot)
				}
			}
			r.restore(&agg, 100.5, tc.fine, tc.coarse, true)
			check("restored")
			r.mark(&agg, tc.markAt, tc.busyStart)
			r.mark(&agg, tc.markAt, tc.busyStart)
			check("after two more marks")

			r.advance(&agg, 100+2*winRetentionBins)
			if fine, coarse := agg.fine.bins(), agg.coarse.bins(); len(fine)+len(coarse) != 0 {
				t.Fatalf("advancing past retention left the aggregate holding fine %+v coarse %+v", fine, coarse)
			}
			if fine, coarse := r.records(); len(fine)+len(coarse) != 0 {
				t.Fatalf("advancing past retention left the ring holding fine %+v coarse %+v", fine, coarse)
			}
		})
	}
}

// TestBinIndexTotal: the index of a time is the same on every platform,
// whatever the time. Converting 2^63 or more to int64 is
// implementation-defined, so binIndex saturates below that.
func TestBinIndexTotal(t *testing.T) {
	if a, b := binIndex(1e300), binIndex(math.MaxFloat64); a != b || a <= 0 {
		t.Fatalf("binIndex(1e300) = %d, binIndex(MaxFloat64) = %d: want one positive index", a, b)
	}
	for _, row := range []struct {
		t    float64
		want int64
	}{
		{-1, 0}, {0, 0}, {0.5, 0}, {41.9, 41}, {1e12, 1e12},
		{math.NaN(), 0}, {math.Inf(-1), 0},
		{1 << 62, winMaxBin}, {1 << 63, winMaxBin}, {math.Inf(1), winMaxBin},
	} {
		if got := binIndex(row.t); got != row.want {
			t.Errorf("binIndex(%v) = %d, want %d", row.t, got, row.want)
		}
	}
}

// TestResidentBytesPerSwarm is the in-tree twin of the benchmark's
// ingest.heap_bytes_per_swarm: what one study swarm keeps on the heap —
// its swarmState (the counted mirror and the ring's codes and head
// inline) and map entry, its registration payload and its ring's
// explicit entries. The bound sits a little
// above today's figure, so the change that fattens any of them names
// itself here; the figure is logged so CI keeps its trajectory.
func TestResidentBytesPerSwarm(t *testing.T) {
	const (
		swarms = 2000
		// bytes; ≈1 080 on go1.24 (≈2 360 with the rings as two slot
		// arrays, ≈2 475 with a published SwarmStats per swarm, ≈3 750
		// with 32-byte ring slots). Kept above the figure because go1.22's
		// map layout, which CI runs, sizes differently.
		bound = 1400
	)
	heap := func() uint64 {
		// Two collections: the first frees what is unreachable, the second
		// what finalizers released.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// What an engine holds whatever it stores is not a swarm's cost: the
	// empty engine is in the baseline, and a one-slot queue of short
	// batches keeps the batch pool (≈2 MB parked at the defaults, half of
	// this study's footprint) out of the figure.
	e := New(Config{Shards: 1, queueDepth: 1, BatchSize: 64})
	defer e.Close()
	before := heap()
	for _, tr := range trace.GenerateStudy(trace.DefaultStudyConfig(swarms, 1)) {
		if err := e.Submit(TraceOps(tr)); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	perSwarm := (float64(heap()) - float64(before)) / swarms
	t.Logf("resident heap: %.0f bytes per swarm over %d swarms", perSwarm, swarms)
	if perSwarm > bound {
		t.Fatalf("a study swarm keeps %.0f bytes on the heap, bound %d", perSwarm, bound)
	}
}
