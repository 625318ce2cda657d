package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"swarmavail/internal/measure"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// runStudy runs the synthetic measurement campaign end to end: it
// generates the seven-month availability study and the single-day
// census, persists both as JSON-lines datasets, re-reads them, and
// prints the §2 analysis — the full pipeline the paper's measurement
// section describes, on the synthetic substrate:
//
//	swarmavail study [-swarms 20000] [-census 100000] [-seed 42] [-dir data]
func runStudy(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		swarms = fs.Int("swarms", 20000, "swarms in the availability study")
		census = fs.Int("census", 100000, "swarms in the single-day census")
		seed   = fs.Int64("seed", 42, "random seed")
		dir    = fs.String("dir", "data", "output directory for the datasets")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *swarms < 1 {
		return refuse("swarms", *swarms, "at least 1")
	}
	if *census < 1 {
		return refuse("census", *census, "at least 1")
	}
	return study(stdout, *swarms, *census, *seed, *dir)
}

func study(stdout io.Writer, swarms, census int, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// --- Availability study (Figure 1's input). ---
	fmt.Fprintf(stdout, "generating availability study: %d swarms, 210 days…\n", swarms)
	traces := trace.GenerateStudy(trace.DefaultStudyConfig(swarms, seed))
	tracePath := filepath.Join(dir, "availability_study.jsonl")
	if err := writeFile(tracePath, func(f *os.File) error {
		return trace.WriteTraces(f, traces)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s\n", tracePath)

	// Re-read to prove the archival round trip, then analyse. The
	// scanner streams one record at a time — only the per-swarm
	// availability pairs are retained, so the analysis pass works at
	// census scale without materialising the dataset — and decodes in
	// parallel, which is where this pass spends its CPU.
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	sc := trace.NewParallelTraceScanner(f, 0)
	defer sc.Close()
	var fm, fl []float64
	for sc.Scan() {
		a, b := measure.Availability(sc.Record())
		fm = append(fm, a)
		fl = append(fl, b)
	}
	f.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	h := measure.HeadlinesFromAvailabilities(fm, fl)
	fmt.Fprintf(stdout, "  swarms analysed:                 %d\n", h.Swarms)
	fmt.Fprintf(stdout, "  fully seeded through month 1:    %.1f%%  (paper: <35%%)\n",
		100*h.FullyAvailableFirstMonth)
	fmt.Fprintf(stdout, "  availability ≤20%% over trace:    %.1f%%  (paper: ≈80%%)\n",
		100*h.MostlyUnavailableOverall)

	firstMonth, full := stats.NewECDF(fm), stats.NewECDF(fl)
	fmt.Fprintln(stdout, "  seed-availability quantiles (first month / whole trace):")
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		fmt.Fprintf(stdout, "    p%-3.0f  %.2f / %.2f\n", q*100, firstMonth.Quantile(q), full.Quantile(q))
	}

	// --- Census (§2.3's input). ---
	fmt.Fprintf(stdout, "\ngenerating census snapshot: %d swarms…\n", census)
	snaps := trace.GenerateSnapshot(trace.SnapshotConfig{Seed: seed + 1, NumSwarms: census})
	censusPath := filepath.Join(dir, "census.jsonl")
	if err := writeFile(censusPath, func(f *os.File) error {
		return trace.WriteSnapshots(f, snaps)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s\n", censusPath)

	ext := measure.ExtentOfBundling(snaps)
	fmt.Fprintln(stdout, "  extent of bundling:")
	for _, cat := range []trace.Category{trace.Music, trace.TV, trace.Books} {
		e := ext[cat]
		fmt.Fprintf(stdout, "    %-6s %8d swarms, %7d bundles (%.1f%%), %d collections\n",
			cat, e.Swarms, e.Bundles, 100*e.BundleFraction(), e.Collections)
	}
	cmp := measure.CompareAvailability(snaps, trace.Books)
	fmt.Fprintf(stdout, "  books: seedless %.1f%% overall vs %.1f%% of bundles (paper: 62%% vs 36%%)\n",
		100*cmp.SeedlessAll, 100*cmp.SeedlessBundles)
	fmt.Fprintf(stdout, "  books: mean downloads %.0f overall vs %.0f for bundles (paper: 2578 vs 4216)\n",
		cmp.MeanDownloadsAll, cmp.MeanDownloadsBundles)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
