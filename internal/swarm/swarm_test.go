package swarm

import (
	"math"
	"testing"

	"swarmavail/internal/dist"
	"swarmavail/internal/stats"
)

// oneFileConfig is the paper's single-file default: 4 MB file, 33 KBps
// peers, 50 KBps publisher.
func oneFileConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		Files:               []FileSpec{{SizeKB: 4000, Lambda: 1.0 / 150}},
		PeerUpload:          dist.Deterministic{Value: 33},
		PublisherUploadKBps: 50,
		PublisherMode:       PublisherAlwaysOn,
		Horizon:             3000,
	}
}

func TestValidateConfig(t *testing.T) {
	good := oneFileConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(c *Config){
		func(c *Config) { c.Files = nil },
		func(c *Config) { c.Files[0].SizeKB = 0 },
		func(c *Config) { c.Files[0].Lambda = -1 },
		func(c *Config) { c.Files[0].Lambda = 0 },
		func(c *Config) { c.PieceSizeKB = -1 },
		func(c *Config) { c.PeerUpload = nil },
		func(c *Config) { c.PublisherUploadKBps = 0 },
		func(c *Config) { c.PublisherMode = PublisherOnOff },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.MaxUploads = -2 },
		// x <= 0 is false for NaN: each of these used to pass, then
		// panic in the event queue ("des: schedule at NaN"), never
		// return, or die allocating 4·10⁹ pieces.
		func(c *Config) { c.Files[0].SizeKB = math.NaN() },
		func(c *Config) { c.Files[0].SizeKB = math.Inf(1) },
		func(c *Config) { c.Files[0].SizeKB = 1e12 },
		func(c *Config) { c.Files[0].SizeKB = MaxPieces*256 + 1 },
		func(c *Config) { c.Files[0].Lambda = math.NaN() },
		func(c *Config) { c.Files[0].Lambda = math.Inf(1) },
		func(c *Config) { c.PieceSizeKB = math.NaN() },
		func(c *Config) { c.PublisherUploadKBps = math.NaN() },
		func(c *Config) { c.PublisherUploadKBps = math.Inf(1) },
		func(c *Config) { c.Horizon = math.NaN() },
		func(c *Config) { c.Horizon = math.Inf(1) },
		func(c *Config) { c.ArrivalCutoff = math.NaN() },
		func(c *Config) { c.ArrivalCutoff = math.Inf(1) },
		func(c *Config) { c.LingerMeanSeconds = math.NaN() },
		func(c *Config) { c.LingerMeanSeconds = -1 },
		func(c *Config) { c.DepartureLagSeconds = math.Inf(1) },
		func(c *Config) { c.DepartureLagSeconds = -1 },
		func(c *Config) { c.AbandonMeanSeconds = math.NaN() },
	}
	for i, mutate := range mutations {
		c := oneFileConfig(1)
		c.Files = []FileSpec{c.Files[0]} // fresh copy
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	atBound := oneFileConfig(1)
	atBound.Files = []FileSpec{{SizeKB: MaxPieces * 256, Lambda: 1.0 / 150}}
	if err := atBound.Validate(); err != nil {
		t.Errorf("MaxPieces pieces rejected: %v", err)
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	c := Config{Files: []FileSpec{{SizeKB: 4000, Lambda: 0.01}, {SizeKB: 2000, Lambda: 0.02}}}
	if got := c.TotalSizeKB(); got != 6000 {
		t.Fatalf("total size %v", got)
	}
	if got := c.AggregateLambda(); math.Abs(got-0.03) > 1e-12 {
		t.Fatalf("aggregate λ %v", got)
	}
	if got := c.NumPieces(); got != 24 { // 6000/256 = 23.4 → 24
		t.Fatalf("pieces %v", got)
	}
}

func TestSinglePeerDownloadsAtPublisherRate(t *testing.T) {
	// One peer, always-on publisher: the peer is the publisher's only
	// transfer, so the download proceeds at 50 KBps over 16 pieces of
	// 256 KB = 4096 KB → 81.92 s.
	c := oneFileConfig(7)
	c.Files[0].Lambda = 1e-9 // effectively no organic arrivals
	c.Arrivals = dist.NewTraceArrivals([]float64{100})
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("admitted %d peers", len(res.Records))
	}
	rec := res.Records[0]
	if !rec.Completed() {
		t.Fatal("peer did not complete")
	}
	want := 16.0 * 256 / 50
	if math.Abs(rec.DownloadTime()-want) > 1e-6 {
		t.Fatalf("download time %v, want %v", rec.DownloadTime(), want)
	}
	if rec.Depart != rec.Complete {
		t.Fatal("selfish peer must depart at completion")
	}
}

func TestTwoConcurrentPeersSharePublisher(t *testing.T) {
	// Two simultaneous peers split the publisher 25/25 KBps but also
	// exchange complementary pieces with each other (rarest-first gives
	// them disjoint in-flight pieces), so both finish well before the
	// naive 2×163.8 s serial bound and no earlier than 81.92 s.
	c := oneFileConfig(8)
	c.Files[0].Lambda = 1e-9
	c.Arrivals = dist.NewTraceArrivals([]float64{10, 10.001})
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount() != 2 {
		t.Fatalf("completed %d of 2", res.CompletedCount())
	}
	for _, r := range res.Records {
		dt := r.DownloadTime()
		if dt < 81.92-1e-9 || dt > 2*163.84 {
			t.Fatalf("implausible download time %v", dt)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := Run(oneFileConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(oneFileConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
	c, err := Run(oneFileConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Records) == len(c.Records)
	if same {
		identical := true
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				identical = false
				break
			}
		}
		if identical && len(a.Records) > 3 {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestAlwaysOnPublisherAvailability(t *testing.T) {
	res, err := Run(oneFileConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AvailabilityFraction(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("availability %v, want 1", got)
	}
	if got := res.PublisherAvailabilityFraction(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("publisher availability %v, want 1", got)
	}
}

func TestOnOffPublisherDutyCycle(t *testing.T) {
	c := oneFileConfig(4)
	c.PublisherMode = PublisherOnOff
	c.PublisherOn = dist.NewExponentialFromMean(300)
	c.PublisherOff = dist.NewExponentialFromMean(900)
	c.Horizon = 200000
	c.Files[0].Lambda = 1.0 / 400 // keep the run light
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got := res.PublisherAvailabilityFraction()
	if math.Abs(got-0.25) > 0.06 {
		t.Fatalf("publisher duty cycle %v, want ≈0.25", got)
	}
	// Content availability must be at least publisher availability.
	if res.AvailabilityFraction() < got-1e-9 {
		t.Fatalf("content availability %v below publisher availability %v",
			res.AvailabilityFraction(), got)
	}
}

func TestRecordInvariants(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := oneFileConfig(seed)
		c.PublisherMode = PublisherOnOff
		c.PublisherOn = dist.NewExponentialFromMean(300)
		c.PublisherOff = dist.NewExponentialFromMean(900)
		c.Files[0].Lambda = 1.0 / 60
		c.Horizon = 1200
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Records {
			if r.Arrive < 0 || r.Arrive > c.Horizon {
				t.Fatalf("seed %d rec %d: arrive %v out of range", seed, i, r.Arrive)
			}
			if r.Completed() {
				if r.Complete < r.Arrive {
					t.Fatalf("seed %d rec %d: complete %v before arrive %v", seed, i, r.Complete, r.Arrive)
				}
				if r.Depart < r.Complete {
					t.Fatalf("seed %d rec %d: depart %v before complete %v", seed, i, r.Depart, r.Complete)
				}
				// Even with every source in parallel, the download takes
				// at least one piece at the fastest single-transfer rate.
				if r.DownloadTime() < 256/50-1e-9 {
					t.Fatalf("seed %d rec %d: impossible download time %v", seed, i, r.DownloadTime())
				}
			} else if !math.IsInf(r.Depart, 1) {
				t.Fatalf("seed %d rec %d: incomplete peer departed at %v", seed, i, r.Depart)
			}
		}
		// IDs are the arrival order.
		for i := 1; i < len(res.Records); i++ {
			if res.Records[i].Arrive < res.Records[i-1].Arrive {
				t.Fatalf("seed %d: records out of arrival order", seed)
			}
		}
	}
}

func TestSeedlessSustainabilityByBundling(t *testing.T) {
	// The Figure 4 mechanism: publisher leaves after the first completed
	// download. Small K starves quickly; K=8 keeps serving peers because
	// the aggregate arrival rate (and per-peer residence) sustains the
	// piece population.
	run := func(k int) *Result {
		files := make([]FileSpec, k)
		for i := range files {
			files[i] = FileSpec{SizeKB: 4000, Lambda: 1.0 / 150}
		}
		res, err := Run(Config{
			Seed:                99,
			Files:               files,
			PeerUpload:          dist.Deterministic{Value: 33},
			PublisherUploadKBps: 50,
			PublisherMode:       PublisherUntilFirstCompletion,
			Horizon:             6000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(1)
	large := run(8)
	if small.CompletedCount() > 6 {
		t.Fatalf("K=1 seedless swarm served %d peers; expected starvation", small.CompletedCount())
	}
	if large.CompletedCount() < 3*small.CompletedCount()+5 {
		t.Fatalf("K=8 served %d vs K=1 %d; expected self-sustaining growth",
			large.CompletedCount(), small.CompletedCount())
	}
	// The large bundle's availability outlives the publisher's presence.
	pubOnline := dist.AvailableFraction(large.PublisherSessions, large.Horizon)
	if large.AvailabilityFraction() < pubOnline+0.2 {
		t.Fatalf("bundle availability %v barely above publisher %v",
			large.AvailabilityFraction(), pubOnline)
	}
}

func TestLingeringImprovesAvailability(t *testing.T) {
	base := oneFileConfig(11)
	base.PublisherMode = PublisherUntilFirstCompletion
	base.Files[0].Lambda = 1.0 / 100
	base.Horizon = 4000

	selfish, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	linger := base
	linger.LingerMeanSeconds = 600
	altruistic, err := Run(linger)
	if err != nil {
		t.Fatal(err)
	}
	if altruistic.AvailabilityFraction() <= selfish.AvailabilityFraction() {
		t.Fatalf("lingering did not improve availability: %v vs %v",
			altruistic.AvailabilityFraction(), selfish.AvailabilityFraction())
	}
	if altruistic.CompletedCount() <= selfish.CompletedCount() {
		t.Fatalf("lingering did not increase completions: %d vs %d",
			altruistic.CompletedCount(), selfish.CompletedCount())
	}
}

func TestClassTaggingProportionalToDemand(t *testing.T) {
	c := Config{
		Seed: 13,
		Files: []FileSpec{
			{SizeKB: 1000, Lambda: 1.0 / 8},
			{SizeKB: 1000, Lambda: 1.0 / 16},
			{SizeKB: 1000, Lambda: 1.0 / 24},
			{SizeKB: 1000, Lambda: 1.0 / 32},
		},
		PeerUpload:          dist.Deterministic{Value: 50},
		PublisherUploadKBps: 100,
		PublisherMode:       PublisherAlwaysOn,
		Horizon:             20000,
	}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	for _, r := range res.Records {
		counts[r.Class]++
	}
	total := float64(len(res.Records))
	if total < 1000 {
		t.Fatalf("too few arrivals: %v", total)
	}
	agg := c.AggregateLambda()
	for i, f := range c.Files {
		want := f.Lambda / agg
		got := counts[i] / total
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("class %d share %v, want %v", i, got, want)
		}
	}
}

func TestDownloadTimesHelpers(t *testing.T) {
	c := oneFileConfig(17)
	c.Horizon = 5000
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	all := res.DownloadTimes()
	if len(all) != res.CompletedCount() {
		t.Fatalf("download times %d vs completed %d", len(all), res.CompletedCount())
	}
	byClass := res.DownloadTimesByClass(0)
	if len(byClass) != len(all) {
		t.Fatalf("single-class swarm: %d vs %d", len(byClass), len(all))
	}
	if len(res.DownloadTimesByClass(5)) != 0 {
		t.Fatal("unknown class must be empty")
	}
	ct := res.CompletionTimes()
	for i := 1; i < len(ct); i++ {
		if ct[i] < ct[i-1] {
			t.Fatal("completion times not sorted")
		}
	}
	var acc stats.Accumulator
	acc.AddAll(all)
	// Always-on publisher: mean download near the capacity-bound regime,
	// certainly below 10× the ideal 124 s and above the 82 s floor.
	if acc.Mean() < 80 || acc.Mean() > 1240 {
		t.Fatalf("mean download time %v implausible", acc.Mean())
	}
}

func TestTraceDrivenArrivals(t *testing.T) {
	c := oneFileConfig(19)
	times := []float64{50, 60, 70, 400, 410}
	c.Arrivals = dist.NewTraceArrivals(times)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(times) {
		t.Fatalf("admitted %d, want %d", len(res.Records), len(times))
	}
	for i, r := range res.Records {
		if r.Arrive != times[i] {
			t.Fatalf("arrival %d at %v, want %v", i, r.Arrive, times[i])
		}
	}
}

func TestMaxArrivalsCap(t *testing.T) {
	c := oneFileConfig(23)
	c.Files[0].Lambda = 10 // flood
	c.MaxArrivals = 50
	c.Horizon = 1000
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 50 {
		t.Fatalf("admitted %d, want cap 50", len(res.Records))
	}
}

func TestPublisherModeString(t *testing.T) {
	if PublisherAlwaysOn.String() != "always-on" ||
		PublisherOnOff.String() != "on-off" ||
		PublisherUntilFirstCompletion.String() != "until-first-completion" {
		t.Fatal("stringers wrong")
	}
	if PublisherMode(9).String() == "" {
		t.Fatal("unknown mode must print")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	_, err := Run(Config{})
	if err == nil {
		t.Fatal("empty config must be rejected")
	}
}

func TestHeterogeneousUploadCapacities(t *testing.T) {
	c := oneFileConfig(29)
	c.PeerUpload = dist.BitTyrantUploadCapacities()
	c.Files[0].Lambda = 1.0 / 60
	c.Horizon = 2500
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// Capacities recorded per peer must span a wide range.
	lo, hi := math.Inf(1), 0.0
	for _, r := range res.Records {
		if r.UploadKBps < lo {
			lo = r.UploadKBps
		}
		if r.UploadKBps > hi {
			hi = r.UploadKBps
		}
	}
	if len(res.Records) < 20 || hi/lo < 5 {
		t.Fatalf("capacity heterogeneity not visible: n=%d lo=%v hi=%v",
			len(res.Records), lo, hi)
	}
}
