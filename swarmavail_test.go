package swarmavail

import (
	"math"
	"testing"

	"swarmavail/internal/dist"
)

func TestFacadeModelRoundTrip(t *testing.T) {
	p := SwarmParams{Lambda: 1.0 / 60, Size: 4000, Mu: 50, R: 1.0 / 900, U: 300}
	if p.ServiceTime() != 80 {
		t.Fatalf("service time %v", p.ServiceTime())
	}
	u := p.Unavailability()
	if u <= 0 || u >= 1 {
		t.Fatalf("unavailability %v", u)
	}
	k, curve := p.OptimalBundleSize(8, ScaledPublisher)
	if k < 1 || k > 8 || len(curve) != 8 {
		t.Fatalf("optimum %d curve %v", k, curve)
	}
	if got := BusyPeriodExceptional(0, 300, 80, 300, 0.5); got != 300 {
		t.Fatalf("facade busy period %v", got)
	}
	b := BundleOf([]SwarmParams{p, p}, p.R, p.U)
	if b.Lambda != 2*p.Lambda || b.Size != 2*p.Size {
		t.Fatalf("facade bundle %+v", b)
	}
	singles, zb := ZipfBundle(4, 1.0/15, 1, p.Size, p.Mu, p.R, p.U, 4*p.R, 4*p.U)
	if len(singles) != 4 || singles[0].Lambda <= singles[3].Lambda ||
		math.Abs(zb.Lambda-1.0/15) > 1e-12 || zb.Size != 4*p.Size || zb.R != 4*p.R {
		t.Fatalf("facade Zipf bundle %+v of %+v", zb, singles)
	}
}

func TestFacadeSimulate(t *testing.T) {
	res, err := Simulate(SimConfig{
		Seed:                5,
		Files:               []FileSpec{{SizeKB: 4000, Lambda: 1.0 / 120}},
		PeerUpload:          dist.Deterministic{Value: 50},
		PublisherUploadKBps: 100,
		PublisherMode:       PublisherAlwaysOn,
		Horizon:             2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvailabilityFraction() != 1 {
		t.Fatalf("always-on availability %v", res.AvailabilityFraction())
	}
	if res.CompletedCount() == 0 {
		t.Fatal("no downloads completed")
	}
}

func TestFacadeMeasurement(t *testing.T) {
	traces := GenerateStudy(DefaultStudyConfig(500, 9))
	h := Headlines(traces)
	if h.Swarms != 500 {
		t.Fatalf("headline swarms %d", h.Swarms)
	}
	if h.FullyAvailableFirstMonth <= 0 || h.FullyAvailableFirstMonth >= 1 {
		t.Fatalf("headline fraction %v", h.FullyAvailableFirstMonth)
	}
	snaps := GenerateSnapshot(SnapshotConfig{Seed: 9, NumSwarms: 300})
	if len(snaps) != 300 {
		t.Fatalf("snapshot size %d", len(snaps))
	}
}

func TestFacadeFluid(t *testing.T) {
	f := FluidFromSwarm(1.0/60, 4000, 50, 400, 0, 1)
	if got := f.DownloadTime(); math.Abs(got-80) > 1e-9 {
		t.Fatalf("fluid download time %v", got)
	}
}
