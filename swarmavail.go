// Package swarmavail is a library for reasoning about content
// availability and bundling in swarming (BitTorrent-like) systems. It
// implements the model and testbed of Menasché, Rocha, Li, Towsley and
// Venkataramani, "Content Availability and Bundling in Swarming
// Systems" (CoNEXT 2009):
//
//   - the M/G/∞ availability model: busy periods with exceptional first
//     customers, unavailability and download-time formulas, threshold
//     coverage, altruistic lingering, and the e^{Θ(K²)} bundling laws
//     (types aliased from the model engine, e.g. SwarmParams);
//   - a deterministic block-level swarm simulator reproducing the
//     paper's PlanetLab experiments (Simulate);
//   - a synthetic measurement substrate and its analysis, reproducing
//     the paper's seven-month availability study and bundling census
//     (GenerateStudy, GenerateSnapshot, Headlines, …);
//   - a runnable mini-BitTorrent (tracker, wire protocol, peers) for
//     end-to-end localhost swarms (see internal/bittorrent and the bt
//     tool).
//
// # Quick start
//
// Describe a swarm by its Table-1 parameters and ask the model
// questions:
//
//	p := swarmavail.SwarmParams{
//	    Lambda: 1.0 / 60, // one peer per minute
//	    Size:   4000,     // 4 MB in KB
//	    Mu:     50,       // 50 KB/s effective capacity
//	    R:      1.0 / 900, // publisher returns every 15 min
//	    U:      300,      // and stays 5 min
//	}
//	fmt.Println(p.Unavailability(), p.DownloadTime())
//	k, curve := p.OptimalBundleSize(10, swarmavail.ScaledPublisher)
//
// The package's Example functions are checked by go test; the complete
// programs are the tools under cmd/ (swarmavail model|sim|figures|study
// and bt tracker|node|mon). DESIGN.md / EXPERIMENTS.md map the paper
// reproduction.
package swarmavail

import (
	"swarmavail/internal/core"
	"swarmavail/internal/fluid"
	"swarmavail/internal/measure"
	"swarmavail/internal/swarm"
	"swarmavail/internal/trace"
)

// Model types (Table 1 of the paper and §3's machinery).
type (
	// SwarmParams describes a swarm or bundle: peer arrival rate λ,
	// content size s, effective capacity μ, publisher arrival rate r and
	// mean publisher residence u.
	SwarmParams = core.SwarmParams
	// PublisherScaling selects how a bundle's publisher process relates
	// to its constituents' (R=Kr,U=Ku vs constant).
	PublisherScaling = core.PublisherScaling
	// Lingering extends SwarmParams with altruistic seeding after
	// completion (§3.3.4).
	Lingering = core.Lingering
)

// Publisher scaling modes.
const (
	// ScaledPublisher folds one publisher process per constituent file
	// into the bundle: R = K·r, U = K·u.
	ScaledPublisher = core.ScaledPublisher
	// ConstantPublisher keeps the bundle's publisher process equal to a
	// single file's — the harder case of Theorems 3.1/3.2.
	ConstantPublisher = core.ConstantPublisher
)

// BusyPeriodExceptional evaluates the Browne–Steele expected busy period
// (paper eq. 9); see SwarmParams.BusyPeriod for the swarm
// parameterisation.
func BusyPeriodExceptional(beta, theta, alpha1, alpha2, q1 float64) float64 {
	return core.BusyPeriodExceptional(beta, theta, alpha1, alpha2, q1)
}

// BundleOf aggregates heterogeneous swarms into one bundle with the
// given publisher process.
func BundleOf(swarms []SwarmParams, r, u float64) SwarmParams {
	return core.BundleOf(swarms, r, u)
}

// PlanBundle is the evaluated bundling plan for a catalog (solo vs
// bundled download times and the bundle's unavailability).
type PlanBundle = core.PlanBundle

// EvaluateBundle builds the bundling plan for the given swarms sharing
// one publisher process.
func EvaluateBundle(swarms []SwarmParams, r, u float64) PlanBundle {
	return core.EvaluateBundle(swarms, r, u)
}

// ZipfBundle builds the §3.3.1 skewed-preference scenario: K contents
// sharing aggregate demand lambda with Zipf(delta) popularity, plus
// their bundle.
func ZipfBundle(k int, lambda, delta, size, mu, r, u, bundleR, bundleU float64) ([]SwarmParams, SwarmParams) {
	return core.ZipfBundle(k, lambda, delta, size, mu, r, u, bundleR, bundleU)
}

// ErrUnachievable is returned by the planning helpers
// (SwarmParams.RequiredBundleSize, RequiredPublisherRate,
// RequiredLingering) when no setting in the searched range meets the
// availability target.
var ErrUnachievable = core.ErrUnachievable

// Simulator types: the block-level testbed of §4.
type (
	// SimConfig configures one simulated swarm (files, capacities,
	// publisher behaviour, arrivals, horizon).
	SimConfig = swarm.Config
	// SimResult carries per-peer records, publisher sessions and
	// availability intervals.
	SimResult = swarm.Result
	// FileSpec is one file carried by a simulated torrent.
	FileSpec = swarm.FileSpec
	// PeerRecord is one simulated peer's lifecycle.
	PeerRecord = swarm.PeerRecord
)

// Publisher behaviour modes for the simulator.
const (
	// PublisherAlwaysOn keeps the publisher online for the whole run.
	PublisherAlwaysOn = swarm.PublisherAlwaysOn
	// PublisherOnOff alternates exponential on/off sojourns.
	PublisherOnOff = swarm.PublisherOnOff
	// PublisherUntilFirstCompletion serves the first copy, then leaves
	// for good (the §4.2 seedless experiment).
	PublisherUntilFirstCompletion = swarm.PublisherUntilFirstCompletion
)

// Simulate runs the block-level swarm simulator; it is deterministic in
// cfg.Seed.
func Simulate(cfg SimConfig) (*SimResult, error) { return swarm.Run(cfg) }

// Measurement types: the synthetic §2 datasets and their analysis.
type (
	// StudyConfig parameterises the seven-month availability study.
	StudyConfig = trace.StudyConfig
	// SwarmTrace is one swarm's seed-session record.
	SwarmTrace = trace.SwarmTrace
	// SnapshotConfig parameterises the single-day census.
	SnapshotConfig = trace.SnapshotConfig
	// Snapshot is one swarm's census row.
	Snapshot = trace.Snapshot
	// StudyHeadlines carries Figure 1's headline statistics.
	StudyHeadlines = measure.StudyHeadlines
)

// DefaultStudyConfig returns the calibrated availability-study
// configuration.
func DefaultStudyConfig(numSwarms int, seed int64) StudyConfig {
	return trace.DefaultStudyConfig(numSwarms, seed)
}

// GenerateStudy produces a synthetic availability study.
func GenerateStudy(cfg StudyConfig) []SwarmTrace { return trace.GenerateStudy(cfg) }

// GenerateSnapshot produces a synthetic single-day census.
func GenerateSnapshot(cfg SnapshotConfig) []Snapshot { return trace.GenerateSnapshot(cfg) }

// Headlines computes the Figure 1 headline statistics from a study.
func Headlines(traces []SwarmTrace) StudyHeadlines { return measure.Headlines(traces) }

// FluidParams is the Qiu–Srikant fluid baseline (§5's comparator).
type FluidParams = fluid.Params

// FluidFromSwarm builds fluid parameters from byte-level quantities.
func FluidFromSwarm(lambda, sizeUnits, upload, download, seedTime, eta float64) FluidParams {
	return fluid.FromSwarm(lambda, sizeUnits, upload, download, seedTime, eta)
}
