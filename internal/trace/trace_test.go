package trace

import (
	"bytes"
	"math"
	"testing"

	"swarmavail/internal/dist"
)

func TestFileMetaExt(t *testing.T) {
	cases := map[string]string{
		"song.MP3":    ".mp3",
		"a.b.c.avi":   ".avi",
		"noextension": "",
		"x.PDF":       ".pdf",
	}
	for name, want := range cases {
		if got := (FileMeta{Name: name}).Ext(); got != want {
			t.Errorf("Ext(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	for c, want := range map[Category]string{
		Music: "music", TV: "tv", Books: "books", Movies: "movies", Other: "other",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category must print")
	}
}

func TestSwarmTraceAvailability(t *testing.T) {
	tr := SwarmTrace{
		SeedSessions:  []dist.Interval{{Start: 0, End: 15}, {Start: 100, End: 110}},
		MonitoredDays: 200,
	}
	if got := tr.AvailabilityOver(30); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("first month availability %v, want 0.5", got)
	}
	if got := tr.AvailabilityOver(tr.MonitoredDays); math.Abs(got-25.0/200) > 1e-12 {
		t.Fatalf("full availability %v", got)
	}
	// Clamping beyond the horizon.
	if got := tr.AvailabilityOver(9999); math.Abs(got-25.0/200) > 1e-12 {
		t.Fatalf("clamped availability %v", got)
	}
}

func TestGenerateStudyShape(t *testing.T) {
	traces := GenerateStudy(DefaultStudyConfig(3000, 7))
	if len(traces) != 3000 {
		t.Fatalf("generated %d traces", len(traces))
	}
	for i, tr := range traces {
		if tr.MonitoredDays != 210 {
			t.Fatalf("trace %d horizon %v", i, tr.MonitoredDays)
		}
		prevEnd := -1.0
		for _, s := range tr.SeedSessions {
			if s.Start < 0 || s.End > tr.MonitoredDays+1e-9 || s.End <= s.Start {
				t.Fatalf("trace %d bad session %+v", i, s)
			}
			if s.Start <= prevEnd {
				t.Fatalf("trace %d sessions not disjoint-sorted", i)
			}
			prevEnd = s.End
		}
	}
}

func TestGenerateStudyDeterministic(t *testing.T) {
	a := GenerateStudy(DefaultStudyConfig(100, 3))
	b := GenerateStudy(DefaultStudyConfig(100, 3))
	for i := range a {
		if len(a[i].SeedSessions) != len(b[i].SeedSessions) {
			t.Fatalf("trace %d differs across identical seeds", i)
		}
	}
}

func TestGenerateStudyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateStudy(StudyConfig{NumSwarms: 0})
}

func TestGenerateSnapshotShape(t *testing.T) {
	snaps := GenerateSnapshot(SnapshotConfig{Seed: 11, NumSwarms: 5000})
	if len(snaps) != 5000 {
		t.Fatalf("generated %d snapshots", len(snaps))
	}
	catCounts := map[Category]int{}
	for i, s := range snaps {
		if len(s.Meta.Files) == 0 {
			t.Fatalf("snapshot %d has no files", i)
		}
		if s.Seeds < 0 || s.Leechers < 0 || s.Downloads < 0 {
			t.Fatalf("snapshot %d negative counts: %+v", i, s)
		}
		if s.Meta.TotalSizeKB() <= 0 {
			t.Fatalf("snapshot %d empty content", i)
		}
		catCounts[s.Meta.Category]++
	}
	// Category mix roughly follows the configured shares.
	for cat, share := range categoryShares {
		got := float64(catCounts[cat]) / float64(len(snaps))
		if math.Abs(got-share) > 0.03 {
			t.Errorf("category %v share %v, want ≈%v", cat, got, share)
		}
	}
}

func TestSnapshotBundleDemandCoupling(t *testing.T) {
	// Bundles must draw more downloads on average (the generator encodes
	// the paper's observed demand coupling).
	snaps := GenerateSnapshot(SnapshotConfig{Seed: 13, NumSwarms: 20000})
	var bundleSum, singleSum float64
	var bundleN, singleN int
	for _, s := range snaps {
		if s.Meta.Category != Books {
			continue
		}
		if isBundleMeta(s.Meta) {
			bundleSum += float64(s.Downloads)
			bundleN++
		} else {
			singleSum += float64(s.Downloads)
			singleN++
		}
	}
	if bundleN < 20 || singleN < 100 {
		t.Fatalf("too few book swarms: %d bundles, %d singles", bundleN, singleN)
	}
	if bundleSum/float64(bundleN) <= singleSum/float64(singleN) {
		t.Fatal("bundles do not draw more downloads")
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	traces := GenerateStudy(DefaultStudyConfig(50, 17))
	var buf bytes.Buffer
	if err := WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(traces) {
		t.Fatalf("read %d of %d", len(back), len(traces))
	}
	for i := range traces {
		if back[i].Meta.ID != traces[i].Meta.ID ||
			len(back[i].SeedSessions) != len(traces[i].SeedSessions) ||
			back[i].MonitoredDays != traces[i].MonitoredDays {
			t.Fatalf("trace %d mismatch", i)
		}
	}
}

func TestSnapshotIORoundTrip(t *testing.T) {
	snaps := GenerateSnapshot(SnapshotConfig{Seed: 19, NumSwarms: 100})
	var buf bytes.Buffer
	if err := WriteSnapshots(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(snaps) {
		t.Fatalf("read %d of %d", len(back), len(snaps))
	}
	for i := range snaps {
		if back[i].Seeds != snaps[i].Seeds || back[i].Downloads != snaps[i].Downloads ||
			back[i].Meta.Title != snaps[i].Meta.Title {
			t.Fatalf("snapshot %d mismatch", i)
		}
	}
}

func TestReadTracesMalformed(t *testing.T) {
	if _, err := ReadTraces(bytes.NewBufferString("not json\n")); err == nil {
		t.Fatal("malformed input accepted")
	}
	if _, err := ReadSnapshots(bytes.NewBufferString("{]")); err == nil {
		t.Fatal("malformed input accepted")
	}
}

func TestArrivalPatterns(t *testing.T) {
	r := dist.NewRand(23)
	young := NewSwarmArrivals(60, 12, 0.5)
	old := OldSwarmArrivals(2)
	const horizon = 3 * 24 * 3600.0
	youngCounts, youngCV := BinnedArrivals(young, r, horizon, 3600)
	oldCounts, oldCV := BinnedArrivals(old, r, horizon, 3600)
	if len(youngCounts) == 0 || len(oldCounts) == 0 {
		t.Fatal("no arrivals binned")
	}
	// Figure 7's contrast: the young swarm's arrivals are far burstier.
	if youngCV <= oldCV {
		t.Fatalf("young CV %v not above old CV %v", youngCV, oldCV)
	}
	// Young swarm: first hour >> last hour.
	if youngCounts[0] <= youngCounts[len(youngCounts)-1] {
		t.Fatalf("flash crowd did not decay: %d vs %d",
			youngCounts[0], youngCounts[len(youngCounts)-1])
	}
	if young.Label == "" || old.Label == "" {
		t.Fatal("patterns must be labelled")
	}
}
