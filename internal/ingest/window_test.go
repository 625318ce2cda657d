package ingest

import (
	"encoding/json"
	"math/rand"
	"testing"

	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// windowJSON is the byte-level identity the merge algebra promises:
// equal WindowStates render to equal bytes.
func windowJSON(t *testing.T, w *WindowState) string {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// studyOpsBySwarm generates a study and groups each swarm's ops; the
// partition tests route whole swarms, which is the invariant cluster
// sharding maintains. The study runs well past the window's retention
// (320 days), so the rings evict, fold and age out along the way.
func studyOpsBySwarm(numSwarms int, seed int64) [][]Op {
	cfg := trace.DefaultStudyConfig(numSwarms, seed)
	cfg.HorizonDays = 2 * winRetentionBins * winBinDays
	traces := trace.GenerateStudy(cfg)
	groups := make([][]Op, 0, len(traces))
	for _, tr := range traces {
		groups = append(groups, TraceOps(tr))
	}
	return groups
}

// TestWindowMergePartitionInvariant is the clustering property behind
// the gateway's byte-identical windowed answers: split the swarms over
// K engines any way, merge the K WindowStates in any order, and the
// result is byte-identical to the WindowState of one engine that saw
// the whole stream.
func TestWindowMergePartitionInvariant(t *testing.T) {
	groups := studyOpsBySwarm(60, 7)
	cfg := Config{Shards: 3}

	ref := New(cfg)
	for _, ops := range groups {
		if err := ref.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	refWin := ref.Window()
	want := windowJSON(t, refWin)
	ref.Close()
	if hi, _ := refWin.MaxIndex(); hi <= winRetentionBins {
		t.Fatalf("the study ends at bin %d: it must outlast retention for the rings to age anything out", hi)
	}

	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 5} {
		parts := make([]*WindowState, k)
		for i := 0; i < k; i++ {
			e := New(cfg)
			for gi, ops := range groups {
				if gi%k != i {
					continue
				}
				if err := e.Submit(ops); err != nil {
					t.Fatal(err)
				}
			}
			parts[i] = e.Window()
			e.Close()
		}
		// Any merge order must agree: try a few random permutations.
		for trial := 0; trial < 4; trial++ {
			order := rng.Perm(k)
			merged := newWindowState()
			for _, i := range order {
				if err := merged.Merge(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if got := windowJSON(t, merged); got != want {
				t.Fatalf("K=%d order %v: merged window diverged from single-engine reference\n--- merged ---\n%s\n--- reference ---\n%s", k, order, got, want)
			}
		}
	}
}

// TestWindowDownsampleMergeCommute pins the retention algebra:
// downsampling each partition and then merging gives the same state as
// merging first and downsampling the result, for any cutoff.
func TestWindowDownsampleMergeCommute(t *testing.T) {
	groups := studyOpsBySwarm(40, 13)
	cfg := Config{Shards: 2}

	const k = 3
	parts := make([]*WindowState, k)
	for i := 0; i < k; i++ {
		e := New(cfg)
		for gi, ops := range groups {
			if gi%k != i {
				continue
			}
			if err := e.Submit(ops); err != nil {
				t.Fatal(err)
			}
		}
		parts[i] = e.Window()
		e.Close()
	}

	clone := func(w *WindowState) *WindowState {
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var out WindowState
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	hi := int64(0)
	for _, p := range parts {
		if m, ok := p.MaxIndex(); ok && m > hi {
			hi = m
		}
	}
	for _, cutoff := range []int64{-1, 0, hi / 2, hi, hi + 10} {
		mergeFirst := newWindowState()
		for _, p := range parts {
			if err := mergeFirst.Merge(clone(p)); err != nil {
				t.Fatal(err)
			}
		}
		mergeFirst.Downsample(cutoff)

		downFirst := newWindowState()
		for _, p := range parts {
			c := clone(p)
			c.Downsample(cutoff)
			if err := downFirst.Merge(c); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := windowJSON(t, downFirst), windowJSON(t, mergeFirst); got != want {
			t.Fatalf("cutoff %d: downsample/merge do not commute\n--- downsample-then-merge ---\n%s\n--- merge-then-downsample ---\n%s", cutoff, got, want)
		}
	}
}

// TestCheckpointWindowRoundTripExact pins the checkpoint-v3 frame: the
// window rings survive a checkpoint/recover cycle bit-for-bit, so a
// restarted (or promoted) node serves the same windowed answers.
func TestCheckpointWindowRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 3}
	e, _, err := OpenDurable(cfg, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range studyOpsBySwarm(50, 21) {
		if err := e.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	want := windowJSON(t, e.Window())
	wantSnap := windowJSON(t, e.Snapshot().Window)
	if want != wantSnap {
		t.Fatalf("flushed snapshot window diverged from barrier window\n--- snapshot ---\n%s\n--- barrier ---\n%s", wantSnap, want)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, _, err := OpenDurable(cfg, DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := windowJSON(t, e2.Window()); got != want {
		t.Fatalf("window state did not survive checkpoint recovery\n--- recovered ---\n%s\n--- original ---\n%s", got, want)
	}
	if got := windowJSON(t, e2.Snapshot().Window); got != want {
		t.Fatalf("recovered snapshot window diverged\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWindowEvictionConservesObservedTime pins what the rings hold, not
// only that they merge: a swarm observed from day 0 and seeded from day
// 0.5, both to day 100.5, has moved its head 100 bins, so days 0–37 left
// the fine window through the coarse bins covering them, and every unit
// of that time is still there exactly once. Past retention the oldest
// coarse bins, and only those, are gone.
func TestWindowEvictionConservesObservedTime(t *testing.T) {
	s := oracleShard()
	at := func(day float64) {
		s.apply(EventOp(Record{SwarmID: 1, PeerID: 1, Seed: true, Online: true, Time: day}))
	}
	total := func(w *WindowState) (tracked, covered, events uint64) {
		for _, bins := range [][]WindowBinState{w.Fine, w.Coarse} {
			for _, b := range bins {
				tracked, covered, events = tracked+b.Tracked, covered+b.Covered, events+b.Events
			}
		}
		return tracked, covered, events
	}
	const half = winUnitsPerBin / 2
	at(0.5)
	at(100.5)
	w := s.swarms[1].timeline()
	if tracked, covered, events := total(w); tracked != 100*winUnitsPerBin+half || covered != 100*winUnitsPerBin || events != 2 {
		t.Fatalf("rings hold %d tracked / %d covered units and %d events, want 100.5 / 100 days and 2", tracked, covered, events)
	}
	// Fine window [37, 100]; bins 0–36 folded into coarse 0–4, the first
	// holding days 0–8 and the swarm's first event.
	if got := w.Fine[0].Index; got != 100-winFineBins+1 {
		t.Fatalf("oldest fine bin is %d, want %d", got, 100-winFineBins+1)
	}
	if c := w.Coarse[0]; c.Index != 0 || c.Tracked != winFoldFactor*winUnitsPerBin || c.Covered != c.Tracked-half || c.Events != 1 || c.BusyStarts != 1 {
		t.Fatalf("coarse bin 0 = %+v, want days 0–%d, seeded from 0.5, and the first event", c, winFoldFactor)
	}

	// Head to bin 400: retention is coarse bins (50-32, 50], days 152
	// onwards, of which the fine ring [337, 400] holds the newest itself.
	at(400.5)
	w = s.swarms[1].timeline()
	const oldest = (400/winFoldFactor - winCoarseBins + 1) * winFoldFactor // first retained day
	if tracked, covered, _ := total(w); tracked != (400-oldest)*winUnitsPerBin+half || covered != tracked {
		t.Fatalf("after ageing out, rings hold %d tracked / %d covered units, want days %d–400.5", tracked, covered, oldest)
	}
	if got := w.Coarse[0].Index; got != oldest/winFoldFactor {
		t.Fatalf("oldest coarse bin is %d, want %d", got, oldest/winFoldFactor)
	}
}

// Downsample folds every fine bin at or below cutoff (an absolute
// fine-bin index) into its coarse bin — the retention operation, made
// explicit so the property tests can check it commutes with Merge.
func (w *WindowState) Downsample(cutoff int64) {
	if len(w.Fine) == 0 {
		return
	}
	keep := w.Fine[:0]
	coarse := make(map[int64]*WindowBinState, len(w.Coarse)+len(w.Fine))
	for i := range w.Coarse {
		cp := w.Coarse[i]
		coarse[cp.Index] = &cp
	}
	for _, bin := range w.Fine {
		if bin.Index > cutoff {
			keep = append(keep, bin)
			continue
		}
		cb := bin.Index / int64(w.FoldFactor)
		agg := coarse[cb]
		if agg == nil {
			agg = &WindowBinState{Index: cb}
			coarse[cb] = agg
		}
		agg.Covered += bin.Covered
		agg.Tracked += bin.Tracked
		agg.BusyStarts += bin.BusyStarts
		agg.Events += bin.Events
		agg.Swarms += bin.Swarms
	}
	w.Fine = keep
	w.Coarse = sortedBins(coarse)
}

// MaxIndex returns the newest absolute fine-bin index the state covers
// (coarse bins are converted to the upper edge of their span), and
// false when the state is empty.
func (w *WindowState) MaxIndex() (int64, bool) {
	var hi int64
	ok := false
	if n := len(w.Fine); n > 0 {
		hi, ok = w.Fine[n-1].Index, true
	}
	if n := len(w.Coarse); n > 0 {
		if c := (w.Coarse[n-1].Index+1)*int64(w.FoldFactor) - 1; !ok || c > hi {
			hi, ok = c, true
		}
	}
	return hi, ok
}
