package experiments

import (
	"regexp"
	"strconv"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-arrivals", "ablation-busyperiod", "ablation-distributions",
		"ablation-impatience", "ablation-lingering", "ablation-patience",
		"ablation-pieces", "ablation-slots", "ablation-threshold",
		"ablation-traffic", "ablation-waitinggroup", "chaos",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c",
		"fig7", "fluid-baseline", "scaling-laws", "sec2.3", "table-bm",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d drivers, want %d", len(all), len(want))
	}
	for i, d := range all {
		if d.ID != want[i] {
			t.Fatalf("driver %d is %q, want %q", i, d.ID, want[i])
		}
		if d.Description == "" || d.Run == nil {
			t.Fatalf("driver %q incomplete", d.ID)
		}
	}
	if _, ok := Lookup("fig6a"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale strings wrong")
	}
}

// runQuick executes a driver at Quick scale and does generic sanity
// checks on its result — among them, for every keyed headline, that the
// value read by key is the value its note line was rendered from.
func runQuick(t *testing.T, id string) *Result {
	t.Helper()
	d, ok := Lookup(id)
	if !ok {
		t.Fatalf("driver %q missing", id)
	}
	res, err := d.Run(Quick, 12345)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID %q for driver %q", res.ID, id)
	}
	if len(res.Charts)+len(res.Timelines)+len(res.Boxplots)+len(res.Tables)+len(res.Notes) == 0 {
		t.Fatalf("%s produced nothing", id)
	}
	for _, n := range res.Notes {
		for _, h := range n.Headlines {
			if got := value(t, res, h.Key); got != h.Value {
				t.Errorf("%s: key %q reads %v, its note %q was rendered from %v (duplicate key?)",
					id, h.Key, got, n.Text, h.Value)
			}
			if !printedIn(n.Text, h.Value) {
				t.Errorf("%s: note %q does not print its headline %s = %v", id, n.Text, h.Key, h.Value)
			}
		}
	}
	return res
}

// value reads a headline by key; a driver that stopped recording it
// fails the test.
func value(t *testing.T, res *Result, key string) float64 {
	t.Helper()
	v, ok := res.Value(key)
	if !ok {
		t.Fatalf("%s: no headline %q in %+v", res.ID, key, res.Notes)
	}
	return v
}

var number = regexp.MustCompile(`-?\d+(\.\d+)?`)

// printedIn reports whether some number in text is v at the precision
// that number was printed with.
func printedIn(text string, v float64) bool {
	for _, m := range number.FindAllStringSubmatch(text, -1) {
		decimals := 0
		if m[1] != "" {
			decimals = len(m[1]) - 1
		}
		if strconv.FormatFloat(v, 'f', decimals, 64) == m[0] {
			return true
		}
	}
	return false
}

// TestHeadlineIsTheValueRendered pins the mechanism on the shape that
// used to be misread: the paper's number in a closing parenthesis is
// prose, the keyed value is the measurement, and the line is unchanged.
func TestHeadlineIsTheValueRendered(t *testing.T) {
	res := &Result{ID: "synthetic"}
	res.Notef("testbed optimal K=%.0f (paper experiment: K=4)", Headline{"testbed_optimal_K", 6})
	res.Notef("books seedless: all %.1f%% vs bundles %.1f%% (paper: 62%% vs 36%%)",
		Headline{"all", 57.44}, Headline{"bundles", 28.571})
	res.Notef("prose with a number: %d", 7)
	for key, want := range map[string]float64{"testbed_optimal_K": 6, "all": 57.44, "bundles": 28.571} {
		if got := value(t, res, key); got != want {
			t.Errorf("Value(%q) = %v, want %v", key, got, want)
		}
	}
	if _, ok := res.Value("paper"); ok {
		t.Error("an unrecorded key has a value")
	}
	want := []string{
		"testbed optimal K=6 (paper experiment: K=4)",
		"books seedless: all 57.4% vs bundles 28.6% (paper: 62% vs 36%)",
		"prose with a number: 7",
	}
	for i, n := range res.Notes {
		if n.Text != want[i] {
			t.Errorf("note %d renders %q, want %q", i, n.Text, want[i])
		}
	}
	if len(res.Notes[2].Headlines) != 0 {
		t.Errorf("prose note carries headlines: %+v", res.Notes[2])
	}
	if printedIn("optimal K=6 (paper: K=4)", 5) || !printedIn("mean 341 s (paper: 405 s)", 341.2) {
		t.Error("printedIn does not compare at the printed precision")
	}
}

func TestFig1Quick(t *testing.T) {
	res := runQuick(t, "fig1")
	if len(res.Charts) != 1 || len(res.Charts[0].Series) != 2 {
		t.Fatal("fig1 must have one chart with two CDFs")
	}
	// Paper: <35% fully seeded through month one, ≈80% at most 20%
	// available over the trace.
	if v := value(t, res, "pct_fully_seeded_month1"); v < 25 || v > 40 {
		t.Errorf("fully seeded through first month: %.1f%%, want 25–40", v)
	}
	if v := value(t, res, "pct_mostly_unavailable"); v < 70 || v > 90 {
		t.Errorf("availability ≤20%% over whole trace: %.1f%%, want 70–90", v)
	}
}

func TestSec23Quick(t *testing.T) {
	res := runQuick(t, "sec2.3")
	if len(res.Tables) != 3 {
		t.Fatalf("sec2.3 has %d tables", len(res.Tables))
	}
	if len(res.Tables[0].Rows) != 3 {
		t.Fatalf("extent table rows: %d", len(res.Tables[0].Rows))
	}
	// The paper's direction (62% of all book swarms seedless vs 36% of
	// bundles; 2578 vs 4216 mean downloads): bundles are seeded more
	// often and fetched more.
	all, bundles := value(t, res, "pct_seedless_all"), value(t, res, "pct_seedless_bundles")
	if !(0 < bundles && bundles < all-10 && all < 100) {
		t.Errorf("books seedless: all %.1f%% vs bundles %.1f%%, want bundles well below all", all, bundles)
	}
	if a, b := value(t, res, "mean_downloads_all"), value(t, res, "mean_downloads_bundles"); !(0 < a && a < b) {
		t.Errorf("books mean downloads: all %.0f vs bundles %.0f, want bundles above all", a, b)
	}
	if v := value(t, res, "tv_odds_ratio"); v <= 1 {
		t.Errorf("TV bundling/availability odds ratio %.2f, want > 1", v)
	}
}

func TestFig3Quick(t *testing.T) {
	res := runQuick(t, "fig3")
	if len(res.Charts[0].Series) != 11 {
		t.Fatalf("fig3 has %d curves, want 11", len(res.Charts[0].Series))
	}
	// The calibrated optima: K*=1 for 1/R ≤ 400 and K*=3 beyond.
	tb := res.Tables[0]
	for _, row := range tb.Rows {
		invR, _ := strconv.ParseFloat(row[0], 64)
		k, _ := strconv.Atoi(row[1])
		if invR <= 400 && k != 1 {
			t.Errorf("1/R=%v: optimum K=%d, want 1", invR, k)
		}
		if invR >= 500 && k != 3 {
			t.Errorf("1/R=%v: optimum K=%d, want 3", invR, k)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	// The paper's curves show an initial increase, a dip, and a final
	// increase. In our calibration the initial-increase phase belongs to
	// the low-1/R curves (K*=1) and the dip-then-increase phase to the
	// high-1/R curves (K*=3); check both.
	res := runQuick(t, "fig3")
	curve := func(name string) []float64 {
		for _, s := range res.Charts[0].Series {
			if s.Name == name {
				return s.Y
			}
		}
		t.Fatalf("curve %q missing", name)
		return nil
	}
	low := curve("1/R=400")
	if !(low[1] > low[0] && low[2] > low[1] && low[3] > low[2]) {
		t.Errorf("1/R=400 should increase initially: %v", low[:4])
	}
	high := curve("1/R=900")
	if !(high[2] < high[1] && high[1] < high[0]) {
		t.Errorf("1/R=900 should dip toward K=3: %v", high[:3])
	}
	if !(high[9] > high[2]) {
		t.Errorf("1/R=900 should increase after the optimum: %v", high)
	}
	// Benefits of bundling grow as R falls: depth of the dip at K=3.
	gain500 := curve("1/R=500")[0] - curve("1/R=500")[2]
	gain1100 := curve("1/R=1100")[0] - curve("1/R=1100")[2]
	if gain1100 <= gain500 {
		t.Errorf("bundling gain should grow with 1/R: %v vs %v", gain1100, gain500)
	}
}

func TestTableBmQuick(t *testing.T) {
	res := runQuick(t, "table-bm")
	tb := res.Tables[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("B(m) table rows: %d", len(tb.Rows))
	}
	// Self-sustaining flag must flip from false to true as K grows.
	if tb.Rows[0][3] != "false" || tb.Rows[7][3] != "true" {
		t.Fatalf("self-sustainability flags wrong: %v", tb.Rows)
	}
}

func TestFig2Quick(t *testing.T) {
	res := runQuick(t, "fig2")
	if len(res.Timelines) != 2 {
		t.Fatalf("fig2 timelines: %d", len(res.Timelines))
	}
	foundPub := false
	for _, s := range res.Timelines[0].Spans {
		if s.Thick {
			foundPub = true
		}
	}
	if !foundPub {
		t.Fatal("no publisher span in fig2")
	}
}

func TestFig4Quick(t *testing.T) {
	res := runQuick(t, "fig4")
	if len(res.Charts[0].Series) != 6 {
		t.Fatalf("fig4 series: %d", len(res.Charts[0].Series))
	}
	// Self-sustainability: K=10's final completions far exceed K=1's.
	final := map[string]float64{}
	for _, s := range res.Charts[0].Series {
		final[s.Name] = s.Y[len(s.Y)-1]
	}
	if final["K=10"] < final["K=1"]+5 {
		t.Fatalf("K=10 (%v) not clearly above K=1 (%v)", final["K=10"], final["K=1"])
	}
	if v := value(t, res, "peers_served_K10"); v != final["K=10"] {
		t.Errorf("peers_served_K10 = %v, the K=10 curve ends at %v", v, final["K=10"])
	}
}

func TestFig5Quick(t *testing.T) {
	res := runQuick(t, "fig5")
	if len(res.Timelines) != 3 {
		t.Fatalf("fig5 timelines: %d", len(res.Timelines))
	}
	for _, tl := range res.Timelines {
		if len(tl.Spans) < 3 {
			t.Fatalf("timeline %q nearly empty", tl.Title)
		}
	}
}

func TestFig6aQuick(t *testing.T) {
	res := runQuick(t, "fig6a")
	if len(res.Charts[0].Series) != 2 {
		t.Fatal("fig6a needs testbed + model series")
	}
	sim := res.Charts[0].Series[0].Y
	// The U shape: K=1 much worse than the best K; the tail grows again.
	best := sim[0]
	bestK := 1
	for i, v := range sim {
		if v < best {
			best, bestK = v, i+1
		}
	}
	// At this seed. Three runs per K do not pin the minimum in general
	// (EXPERIMENTS.md, Figure 6(a), lists seeds that put it at K=1 and 2).
	if bestK < 3 || bestK > 6 {
		t.Errorf("testbed optimum K=%d outside [3,6]: %v", bestK, sim)
	}
	if sim[0] < 1.3*best {
		t.Errorf("K=1 (%v) not clearly worse than optimum (%v)", sim[0], best)
	}
	if v := value(t, res, "testbed_optimal_K"); v != float64(bestK) {
		t.Errorf("testbed_optimal_K = %v, the testbed curve's minimum is at K=%d", v, bestK)
	}
	// Paper model: K=5.
	if v := value(t, res, "model_optimal_K"); v < 4 || v > 6 {
		t.Errorf("model optimal K=%v outside [4,6]", v)
	}
}

func TestFig6cQuick(t *testing.T) {
	res := runQuick(t, "fig6c")
	if len(res.Boxplots) != 1 || len(res.Boxplots[0].Groups) != 5 {
		t.Fatal("fig6c needs 5 boxplot groups")
	}
	// The robust testbed claim: the bundle beats the unpopular solo
	// files (the paper's headline for this experiment). Solo-file
	// ordering among files 1–4 is noise in the whole-piece substrate and
	// is asserted on the model output instead.
	groups := res.Boxplots[0].Groups
	bundle := groups[4].Mean
	beats := 0
	for _, g := range groups[1:4] {
		if bundle < g.Mean {
			beats++
		}
	}
	if beats < 2 {
		t.Errorf("bundle (%v) beats only %d of 3 unpopular solo files: %+v",
			bundle, beats, groups)
	}
	// Model ordering: solo E[T] strictly increasing in 1/λ.
	var modelSolo []float64
	for _, key := range []string{"model_solo_s_file1", "model_solo_s_file2", "model_solo_s_file3", "model_solo_s_file4"} {
		modelSolo = append(modelSolo, value(t, res, key))
	}
	for i := 1; i < len(modelSolo); i++ {
		if modelSolo[i] < modelSolo[i-1] {
			t.Fatalf("model solo ordering broken: %v", modelSolo)
		}
	}
	if v := value(t, res, "bundle_mean_s"); v != bundle {
		t.Errorf("bundle_mean_s = %v, the bundle's boxplot mean is %v", v, bundle)
	}
}

func TestFig7Quick(t *testing.T) {
	res := runQuick(t, "fig7")
	// A flash crowd is burstier than a steady old swarm (new ≫ old).
	if young, old := value(t, res, "cv_new_swarm"), value(t, res, "cv_old_swarm"); young < 2*old {
		t.Errorf("arrival-count CV: new swarm %.2f vs old swarm %.2f, want new ≫ old", young, old)
	}
}

func TestScalingLawsQuick(t *testing.T) {
	res := runQuick(t, "scaling-laws")
	if v := value(t, res, "doubling_ratio"); v < 3.5 || v > 4.5 {
		t.Fatalf("scaling ratio %v, want ≈4", v)
	}
}

func TestFluidBaselineQuick(t *testing.T) {
	res := runQuick(t, "fluid-baseline")
	chart := res.Charts[0]
	if len(chart.Series) != 2 {
		t.Fatal("fluid chart needs two series")
	}
	// The availability model's curve must dip below its K=1 value
	// somewhere; the fluid curve never does.
	avail := chart.Series[0].Y
	dips := false
	for _, v := range avail[1:] {
		if v < avail[0] {
			dips = true
		}
	}
	if !dips {
		t.Fatalf("availability model curve never dips: %v", avail)
	}
	if k := value(t, res, "avail_model_optimum"); k < 2 || avail[int(k)-1] >= avail[0] {
		t.Errorf("availability model optimum K=%v is not an interior dip of %v", k, avail)
	}
	fluid := chart.Series[1].Y
	for k := 1; k < len(fluid); k++ {
		if fluid[k] < fluid[k-1] {
			t.Fatalf("fluid baseline not monotone increasing at K=%d: %v", k+1, fluid)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	for _, id := range []string{
		"ablation-threshold", "ablation-patience", "ablation-lingering",
		"ablation-arrivals", "ablation-pieces", "ablation-busyperiod",
		"ablation-waitinggroup", "ablation-distributions",
		"ablation-traffic", "ablation-impatience", "ablation-slots",
	} {
		res := runQuick(t, id)
		if len(res.Notes) == 0 {
			t.Errorf("%s: no notes", id)
		}
	}
}

func TestAblationThresholdMonotone(t *testing.T) {
	res := runQuick(t, "ablation-threshold")
	ys := res.Charts[0].Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]-1e-12 {
			t.Fatalf("P(m) not non-decreasing at m=%d: %v", i, ys)
		}
	}
}

func TestFig6bQuick(t *testing.T) {
	res := runQuick(t, "fig6b")
	// Three runs per K under heavy-tailed capacities leave the quick
	// curve too noisy for a range on the optimum (paper: K=5); what must
	// hold is that the headline is the curve's minimum.
	ys := res.Charts[0].Series[0].Y
	k := int(value(t, res, "optimal_K"))
	if k < 1 || k > len(ys) {
		t.Fatalf("optimal K=%d outside the sweep: %v", k, ys)
	}
	for i, y := range ys {
		if y < ys[k-1] {
			t.Errorf("optimal_K = %d, but K=%d has the lower mean: %v", k, i+1, ys)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	register(Driver{ID: "fig1", Description: "dup", Run: Fig1})
}
