package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/measure"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// pushStudy is replay-over-network: it streams an archived availability
// study's monitor records to a remote availd's /v1/ingest through the
// retrying HTTP client, riding out transient outages with backoff. The
// trace file is decoded in parallel so the sender, not JSON parsing, is
// the bottleneck.
func pushStudy(ctx context.Context, url, path string, batch int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c := ingest.NewHTTPClient(ingest.HTTPClientConfig{
		BaseURL: strings.TrimSuffix(url, "/v1/ingest"),
		Logf: func(format string, args ...any) {
			fmt.Printf("availd: "+format+"\n", args...)
		},
	})
	sc := trace.NewParallelTraceScanner(f, 0)
	defer sc.Close()
	start := time.Now()
	st, err := c.PushTraces(ctx, sc, batch)
	if err != nil {
		return err
	}
	fmt.Printf("pushed %d records from %d swarms to %s in %v (%d retries)\n",
		st.Records, st.Swarms, url, time.Since(start).Round(time.Millisecond), c.Retries())
	return nil
}

// tap is a trace.Source that shows each scanned record to see on its
// way to the consumer. The replay reads its source from one goroutine,
// so -verify's offline accumulators ride the same scan, in file order,
// whatever -writers is — verification is a tap on the source, not a
// second replay.
type tap[T any] struct {
	trace.Source[T]
	see func(T)
}

func (t tap[T]) Scan() bool {
	if !t.Source.Scan() {
		return false
	}
	t.see(t.Record())
	return true
}

// offlineRef accumulates the offline reference statistics during the
// replay scan, so verification needs no second pass over the file.
type offlineRef struct {
	avail      map[int][2]float64
	firstMonth *stats.QuantileSketch
	full       *stats.QuantileSketch
	fm, fl     []float64
}

func (ref *offlineRef) add(t trace.SwarmTrace) {
	fm, full := measure.Availability(t)
	ref.avail[t.Meta.ID] = [2]float64{fm, full}
	ref.firstMonth.Add(fm)
	ref.full.Add(full)
	ref.fm = append(ref.fm, fm)
	ref.fl = append(ref.fl, full)
}

func replayStudy(e *ingest.Engine, path string, writers int, verify bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// Parallel decode: order-preserving, so the offline reference sees
	// the file order.
	sc := trace.NewParallelTraceScanner(f, 0)
	defer sc.Close()
	var src trace.Source[trace.SwarmTrace] = sc
	var ref *offlineRef
	if verify {
		ref = &offlineRef{
			avail:      make(map[int][2]float64),
			firstMonth: stats.NewAvailabilitySketch(),
			full:       stats.NewAvailabilitySketch(),
		}
		src = tap[trace.SwarmTrace]{sc, ref.add}
	}
	start := time.Now()
	n, err := ingest.ReplayTraces(e, src, writers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	m := e.Metrics()
	fmt.Printf("replayed %d swarms (%d records) in %v — %.0f records/s, batch p50 latency %s\n",
		n, m.Applied, elapsed.Round(time.Millisecond),
		float64(m.Applied)/elapsed.Seconds(), fmtSeconds(m.LatencyP50))

	sum := e.Summary()
	h := sum.Headlines()
	fmt.Printf("online headlines: %.1f%% fully seeded through month 1, %.1f%% available ≤20%% of the trace\n",
		100*h.FullyAvailableFirstMonth, 100*h.MostlyUnavailableOverall)
	fmt.Println("online availability quantiles (first month / whole trace):")
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		fmt.Printf("  p%-3.0f  %.3f / %.3f\n", q*100, sum.FirstMonth.Quantile(q), sum.Full.Quantile(q))
	}

	if verify {
		return verifyStudy(e, sum, ref)
	}
	return nil
}

func verifyStudy(e *ingest.Engine, sum *ingest.Summary, ref *offlineRef) error {
	var maxDelta float64
	for id, want := range ref.avail {
		st, ok := e.Swarm(id)
		if !ok {
			return fmt.Errorf("verify: swarm %d missing from online state", id)
		}
		d := math.Max(math.Abs(st.FirstMonth-want[0]), math.Abs(st.Full-want[1]))
		if d > maxDelta {
			maxDelta = d
		}
	}
	const tol = 1e-9
	fmt.Printf("verify: %d swarms, max |online − offline| availability = %.3g (tolerance %g)\n",
		len(ref.avail), maxDelta, tol)
	if maxDelta > tol {
		return fmt.Errorf("verify: per-swarm availability diverged by %g > %g", maxDelta, tol)
	}

	// Online sketches must equal the offline single-pass sketches, and
	// both must sit within one bin of the exact order statistics.
	sort.Float64s(ref.fm)
	sort.Float64s(ref.fl)
	res := sum.FirstMonth.Resolution()
	var maxQ float64
	for _, q := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		if sum.FirstMonth.Quantile(q) != ref.firstMonth.Quantile(q) ||
			sum.Full.Quantile(q) != ref.full.Quantile(q) {
			return fmt.Errorf("verify: online sketch quantile q=%v diverged from offline sketch", q)
		}
		rank := int(math.Ceil(q * float64(len(ref.fm))))
		dFM := math.Abs(sum.FirstMonth.Quantile(q) - ref.fm[rank-1])
		dFL := math.Abs(sum.Full.Quantile(q) - ref.fl[rank-1])
		maxQ = math.Max(maxQ, math.Max(dFM, dFL))
	}
	fmt.Printf("verify: CDF quantiles identical to offline sketch; max |sketch − exact order stat| = %.3g (tolerance %.3g)\n",
		maxQ, res)
	if maxQ > res+1e-12 {
		return fmt.Errorf("verify: sketch quantile error %g exceeds resolution %g", maxQ, res)
	}
	fmt.Println("verify: OK")
	return nil
}

func replayCensus(e *ingest.Engine, path string, writers int, verify bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc := trace.NewParallelSnapshotScanner(f, 0)
	defer sc.Close()
	var src trace.Source[trace.Snapshot] = sc
	var offline map[trace.Category]measure.BundlingExtent
	if verify {
		// The offline extent uses the identical classifier on each record.
		offline = map[trace.Category]measure.BundlingExtent{}
		src = tap[trace.Snapshot]{sc, func(s trace.Snapshot) {
			acc := offline[s.Meta.Category]
			acc.Category = s.Meta.Category
			acc.Swarms++
			if measure.IsBundle(s.Meta) {
				acc.Bundles++
			}
			if s.Meta.Category == trace.Books && measure.IsCollection(s.Meta) {
				acc.Collections++
			}
			offline[s.Meta.Category] = acc
		}}
	}
	start := time.Now()
	n, err := ingest.ReplaySnapshots(e, src, writers)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d census snapshots in %v\n", n, time.Since(start).Round(time.Millisecond))

	sum := e.Summary()
	for _, cat := range []trace.Category{trace.Music, trace.TV, trace.Books} {
		cc := sum.Categories[cat]
		fmt.Printf("  %-6s %8d swarms, %6d bundles, %d collections, %.1f%% seedless\n",
			cat, cc.Swarms, cc.Bundles, cc.Collections,
			100*cc.Compare(cat).SeedlessAll)
		if verify {
			if got := cc.Extent(cat); got != offline[cat] {
				return fmt.Errorf("verify: %v bundling counters diverged: online %+v offline %+v",
					cat, got, offline[cat])
			}
		}
	}
	if verify {
		fmt.Println("verify: bundling counters identical to offline analysis")
	}
	return nil
}

func fmtSeconds(s float64) string {
	if s <= 0 {
		return "n/a"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
