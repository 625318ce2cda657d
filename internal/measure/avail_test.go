package measure

import (
	"math"
	"sort"
	"testing"

	"swarmavail/internal/dist"
	"swarmavail/internal/trace"
)

func TestSharedAvailabilityDefinitions(t *testing.T) {
	if !IsFullyAvailable(1) || !IsFullyAvailable(1-1e-12) {
		t.Fatal("availability of 1 (up to eps) must count as fully available")
	}
	if IsFullyAvailable(0.999) {
		t.Fatal("0.999 must not count as fully available")
	}
	if !IsMostlyUnavailable(0.2) || IsMostlyUnavailable(0.21) {
		t.Fatal("mostly-unavailable boundary must sit at 0.2 inclusive")
	}

	tr := trace.SwarmTrace{
		SeedSessions:  []dist.Interval{{Start: 0, End: 15}, {Start: 100, End: 110}},
		MonitoredDays: 200,
	}
	fm, full := Availability(tr)
	if fm != tr.AvailabilityOver(30) || full != tr.AvailabilityOver(tr.MonitoredDays) {
		t.Fatalf("Availability() = %v/%v, trace methods %v/%v",
			fm, full, tr.AvailabilityOver(30), tr.AvailabilityOver(tr.MonitoredDays))
	}
}

func TestHeadlinesMatchesStreamingForm(t *testing.T) {
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(500, 11))
	batch := Headlines(traces)
	fm, full := Availabilities(traces)
	streamed := HeadlinesFromAvailabilities(fm, full)
	if batch != streamed {
		t.Fatalf("batch %+v != streamed %+v", batch, streamed)
	}
	if batch.Swarms != 500 {
		t.Fatalf("swarms = %d", batch.Swarms)
	}

	// The sketch quantile must bracket the exact ⌈qn⌉-th order
	// statistic within one bin width (the sketch's accuracy contract).
	skFM, skFull := AvailabilitySketches(traces)
	sortedFM := append([]float64(nil), fm...)
	sortedFull := append([]float64(nil), full...)
	sort.Float64s(sortedFM)
	sort.Float64s(sortedFull)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		rank := int(math.Ceil(q * float64(len(sortedFM))))
		exactFM, exactFull := sortedFM[rank-1], sortedFull[rank-1]
		if got := skFM.Quantile(q); got < exactFM-1e-12 || got > exactFM+skFM.Resolution()+1e-12 {
			t.Errorf("first-month q%v: sketch %v vs exact order stat %v", q, got, exactFM)
		}
		if got := skFull.Quantile(q); got < exactFull-1e-12 || got > exactFull+skFull.Resolution()+1e-12 {
			t.Errorf("full q%v: sketch %v vs exact order stat %v", q, got, exactFull)
		}
	}
}

func TestHeadlinesFromAvailabilitiesEdges(t *testing.T) {
	if h := HeadlinesFromAvailabilities(nil, nil); h.Swarms != 0 {
		t.Fatalf("empty input: %+v", h)
	}
	// Mismatched lengths are refused rather than miscounted.
	if h := HeadlinesFromAvailabilities([]float64{1}, nil); h.FullyAvailableFirstMonth != 0 {
		t.Fatalf("mismatched input: %+v", h)
	}
}
