package swarmavail_test

import (
	"fmt"

	"swarmavail"
)

// The paper's headline scenario: an unpopular file behind a flaky
// publisher becomes far more available when bundled.
func ExampleSwarmParams_unavailability() {
	p := swarmavail.SwarmParams{
		Lambda: 1.0 / 60,  // one peer per minute
		Size:   4000,      // 4 MB in KB
		Mu:     50,        // 50 KB/s effective capacity
		R:      1.0 / 900, // publisher returns every 15 minutes
		U:      300,       // and stays for 5
	}
	fmt.Printf("single: P = %.2f\n", p.Unavailability())
	fmt.Printf("K=4 bundle: P = %.1e\n", p.Bundle(4, swarmavail.ScaledPublisher).Unavailability())
	// Output:
	// single: P = 0.63
	// K=4 bundle: P = 4.1e-11
}

// Download time combines active service with idle waiting (Lemma 3.2);
// bundling trades more service for much less waiting.
func ExampleSwarmParams_OptimalBundleSize() {
	p := swarmavail.SwarmParams{Lambda: 1.0 / 60, Size: 4000, Mu: 50, R: 1.0 / 900, U: 300}
	k, curve := p.OptimalBundleSize(4, swarmavail.ScaledPublisher)
	fmt.Printf("optimal K = %d\n", k)
	fmt.Printf("E[T](1) = %.0f s, E[T](%d) = %.0f s\n", curve[0], k, curve[k-1])
	// Output:
	// optimal K = 2
	// E[T](1) = 648 s, E[T](2) = 168 s
}

// The planning helpers answer the inverse question: how much bundling
// does a target availability need?
func ExampleSwarmParams_RequiredBundleSize() {
	p := swarmavail.SwarmParams{Lambda: 1.0 / 60, Size: 4000, Mu: 50, R: 1.0 / 900, U: 300}
	k, err := p.RequiredBundleSize(1e-6, 10, swarmavail.ScaledPublisher)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("bundle %d files for P ≤ 1e-6\n", k)
	// Output:
	// bundle 4 files for P ≤ 1e-6
}

// EvaluateBundle compares a catalog's solo swarms with their bundle in
// one call — the §4.3.3 heterogeneous-popularity analysis.
func ExampleEvaluateBundle() {
	popular := swarmavail.SwarmParams{Lambda: 1.0 / 8, Size: 4000, Mu: 50, R: 1.0 / 900, U: 300}
	niche := swarmavail.SwarmParams{Lambda: 1.0 / 300, Size: 4000, Mu: 50, R: 1.0 / 900, U: 300}
	plan := swarmavail.EvaluateBundle([]swarmavail.SwarmParams{popular, niche}, 1.0/900, 300)
	fmt.Printf("niche solo:   %.0f s\n", plan.SoloTimes[1])
	fmt.Printf("in the bundle: %.0f s\n", plan.BundleTime)
	// Output:
	// niche solo:   713 s
	// in the bundle: 160 s
}

// Mixed bundling (§4.3.3): a catalog of one hit and a long tail behind
// a publisher that is absent most of the time (r = 1/2000 s⁻¹,
// u = 300 s). One bundle of everything rescues the tail at a cost to
// the hit's fans; keeping the hit solo and bundling only the tail
// rescues the tail and leaves the hit as fast as it was.
func ExampleBundleOf() {
	titles := []string{"blockbuster", "cult-classic", "deep-cut-1", "deep-cut-2", "archive-gem"}
	var catalog []swarmavail.SwarmParams
	for _, lambda := range []float64{1.0 / 10, 1.0 / 120, 1.0 / 400, 1.0 / 600, 1.0 / 900} {
		catalog = append(catalog, swarmavail.SwarmParams{Lambda: lambda, Size: 4000, Mu: 50, R: 1.0 / 2000, U: 300})
	}
	all := swarmavail.BundleOf(catalog, 1.0/2000, 300)
	tail := swarmavail.BundleOf(catalog[1:], 1.0/2000, 300)
	fmt.Printf("P: hit solo %.3f, tail bundle %.2f, all-in-one %.1e\n",
		catalog[0].Unavailability(), tail.Unavailability(), all.Unavailability())
	fmt.Printf("%-14s %10s %10s %10s\n", "E[T] (s)", "solo", "all-in-one", "mixed")
	for i, p := range catalog {
		mixed := tail.DownloadTime()
		if i == 0 {
			mixed = p.DownloadTime()
		}
		fmt.Printf("%-14s %10.0f %10.0f %10.0f\n", titles[i], p.DownloadTime(), all.DownloadTime(), mixed)
	}
	// Output:
	// P: hit solo 0.049, tail bundle 0.24, all-in-one 3.6e-18
	// E[T] (s)             solo all-in-one      mixed
	// blockbuster           178        400        178
	// cult-classic         1759        400        806
	// deep-cut-1           1790        400        806
	// deep-cut-2           1794        400        806
	// archive-gem          1797        400        806
}
