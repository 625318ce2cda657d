package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"swarmavail/internal/core"
	"swarmavail/internal/experiments"
)

// tool runs `swarmavail args...` in-process, as a shell would.
func tool(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// ok is tool for a command line that must succeed.
func ok(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := tool(args...)
	if code != 0 || stderr != "" {
		t.Fatalf("swarmavail %s: exit %d\nstderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

func TestNoOrUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"figure"}, {"-h"}} {
		code, stdout, stderr := tool(args...)
		if code != 2 || stdout != "" {
			t.Errorf("swarmavail %v: exit %d, stdout %q; want 2 and nothing printed", args, code, stdout)
		}
		for sub := range subcommands {
			if !strings.Contains(stderr, sub) {
				t.Errorf("swarmavail %v: usage does not name %q:\n%s", args, sub, stderr)
			}
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	for sub := range subcommands {
		code, stdout, stderr := tool(sub, "-h")
		if code != 0 || stdout != "" || !strings.Contains(stderr, "Usage of swarmavail "+sub) {
			t.Errorf("swarmavail %s -h: exit %d, stdout %q, stderr %q", sub, code, stdout, stderr)
		}
	}
}

// TestBadFlagValueIsUsageError: every command line here used to end in
// a Go panic trace, a hang, an out-of-memory kill or a silently wrong
// run. Each is refused before the library is called: exit 2, one line
// on stderr, nothing on stdout, no file or directory created.
func TestBadFlagValueIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"model", "-maxk", "0"},        // panic: core: maxK must be ≥ 1
		{"model", "-m", "-1"},          // panic: core: threshold must be non-negative
		{"sim", "-k", "-1"},            // panic: makeslice: len out of range
		{"sim", "-k", "2000000000"},    // 32 GB of file specs
		{"sim", "-on", "0"},            // panic: dist: exponential mean must be positive, got 0
		{"sim", "-off", "0"},           // the same
		{"sim", "-peerup", "-3"},       // ran, with every peer floored to 1 KB/s
		{"sim", "-lag", "-1"},          // ran, peers departing before they completed
		{"sim", "-lambda", "NaN"},      // panic: des: schedule at NaN
		{"sim", "-pubup", "NaN"},       // the same
		{"sim", "-lambda", "+Inf"},     // never returned
		{"sim", "-horizon", "NaN"},     // never returned
		{"sim", "-size", "1e12"},       // fatal error: runtime: out of memory (4·10⁹ pieces)
		{"study", "-swarms", "0"},      // panic: trace: study needs positive swarm count and horizon
		{"study", "-swarms", "-1"},     // the same
		{"study", "-census", "-1"},     // panic: trace: snapshot needs a positive swarm count, the study file already written
		{"figures", "-scale", "bogus"}, // ran quick
	} {
		dir := filepath.Join(t.TempDir(), "made")
		switch args[0] {
		case "study":
			args = append(args, "-dir", dir)
		case "figures":
			args = append(args, "-fig", "fig3", "-out", dir)
		}
		code, stdout, stderr := tool(args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "swarmavail "+args[0]+": ") {
			t.Errorf("swarmavail %v: exit %d, stdout %q, stderr %q; want 2 and one line", args, code, stdout, stderr)
		}
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("swarmavail %v: created %s before refusing", args, dir)
		}
	}
}

// A flag the subcommand does not have is the flag package's refusal: 2,
// with the usage.
func TestUnknownFlag(t *testing.T) {
	code, _, stderr := tool("study", "-swarm", "5")
	if code != 2 || !strings.Contains(stderr, "Usage of swarmavail study") {
		t.Fatalf("exit %d, stderr %q; want 2 with usage", code, stderr)
	}
}

// TestModel: with no flags it is the §4.3 testbed; the starred row is
// the model's optimum, and the publisher scaling changes the curve.
func TestModel(t *testing.T) {
	scaled := ok(t, "model")
	for _, want := range []string{"busy period E[B] (eq.9):", "optimal bundle size: K="} {
		if !strings.Contains(scaled, want) {
			t.Errorf("output lacks %q:\n%s", want, scaled)
		}
	}
	tb := experiments.Sec43
	best, _ := tb.Model(tb.Lambda, tb.SizeKB).OptimalBundleSize(10, core.ScaledPublisher)
	star := regexp.MustCompile(`(?m)^\* (\d+) `).FindAllStringSubmatch(scaled, -1)
	if len(star) != 1 || star[0][1] != strconv.Itoa(best) {
		t.Errorf("starred rows %v, want the one for K=%d:\n%s", star, best, scaled)
	}
	if !strings.HasSuffix(scaled, fmt.Sprintf("optimal bundle size: K=%d\n", best)) {
		t.Errorf("last line is not the optimum K=%d:\n%s", best, scaled)
	}

	curve := func(out string) string { return out[strings.Index(out, "\nbundling ("):] }
	constant := ok(t, "model", "-scaling", "constant")
	if curve(constant) == curve(scaled) || !strings.Contains(constant, "bundling (constant publisher process)") {
		t.Errorf("-scaling constant prints the scaled curve:\n%s", constant)
	}
	if strings.TrimSuffix(constant, curve(constant)) != strings.TrimSuffix(scaled, curve(scaled)) {
		t.Error("-scaling changed the single-swarm quantities")
	}
}

// TestSim: a run is a function of its flags, -seed among them, and
// -timeline draws every publisher session and every peer admitted.
func TestSim(t *testing.T) {
	short := []string{"sim", "-k", "2", "-horizon", "300", "-drain", "3000", "-timeline"}
	out := ok(t, short...)
	for _, want := range []string{"bundle K=2, aggregate λ=", "content availability:", "peer timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if again := ok(t, short...); again != out {
		t.Errorf("same flags, different output:\n%s\n---\n%s", out, again)
	}
	if other := ok(t, append(short, "-seed", "2")...); other == out {
		t.Error("-seed 2 reproduced -seed 1's run")
	}
	arrivals := regexp.MustCompile(`(?m)^  arrivals: +(\d+)$`).FindStringSubmatch(out)
	spans := regexp.MustCompile(`(?m)^p\d{3} `).FindAllString(out, -1)
	if arrivals == nil || arrivals[1] == "0" || strconv.Itoa(len(spans)) != arrivals[1] {
		t.Errorf("%d peer spans for arrivals %v:\n%s", len(spans), arrivals, out)
	}
	if !regexp.MustCompile(`(?m)^pub  `).MatchString(out) {
		t.Errorf("no publisher span:\n%s", out)
	}
}

// TestFiguresList: -list names every registered driver, one per line.
func TestFiguresList(t *testing.T) {
	stdout := ok(t, "figures", "-list")
	all := experiments.All()
	if got := strings.Count(stdout, "\n"); got != len(all) || got == 0 {
		t.Fatalf("-list printed %d lines for %d drivers", got, len(all))
	}
	for _, d := range all {
		if !strings.Contains(stdout, d.ID+" ") {
			t.Errorf("-list omits %s", d.ID)
		}
	}
}

// TestFiguresOne: a named artefact renders to stdout and writes its CSV
// under -out.
func TestFiguresOne(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv") // run creates it
	stdout := ok(t, "figures", "-fig", "fig7", "-out", dir)
	if !strings.Contains(stdout, "==== fig7 — ") {
		t.Errorf("no fig7 banner in:\n%s", stdout)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig7_chart0.csv"))
	if err != nil || bytes.Count(csv, []byte("\n")) < 2 {
		t.Fatalf("fig7 CSV: %d bytes, err %v", len(csv), err)
	}
}

func TestFiguresUnknownArtefact(t *testing.T) {
	code, stdout, stderr := tool("figures", "-fig", "fig99", "-out", "")
	if code != 2 || !strings.Contains(stderr, `unknown artefact "fig99"`) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 naming the artefact", code, stdout, stderr)
	}
}

// TestFiguresGolden: the tracked out/*.csv are what `swarmavail figures
// -fig all -scale quick -seed 42` writes. The drivers that cost
// milliseconds are held to them here; the simulator-backed ten files
// (≈20 s) are diffed by CI's "Figures parity" step.
func TestFiguresGolden(t *testing.T) {
	dir := t.TempDir()
	ok(t, "figures", "-scale", "quick", "-seed", "42", "-out", dir, "-fig",
		"fig1,fig3,fig7,scaling-laws,fluid-baseline,ablation-threshold,ablation-lingering")
	written, err := os.ReadDir(dir)
	if err != nil || len(written) != 7 {
		t.Fatalf("%d files written, err %v; want one chart each", len(written), err)
	}
	for _, f := range written {
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "out", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the tracked out/%s", f.Name(), f.Name())
		}
	}
}

// TestStudySmallCampaign runs the whole campaign at a small size: both
// datasets are written with one record per swarm, the analysis re-reads
// as many trace records as were written, and the three §2 headline
// lines are printed.
func TestStudySmallCampaign(t *testing.T) {
	dir := t.TempDir()
	stdout := ok(t, "study", "-swarms", "50", "-census", "200", "-dir", dir)
	for name, want := range map[string]int{"availability_study.jsonl": 50, "census.jsonl": 200} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(raw, []byte("\n")); got != want {
			t.Errorf("%s holds %d records, want %d", name, got, want)
		}
	}
	for _, want := range []string{
		"swarms analysed:                 50\n",
		"fully seeded through month 1:",
		"availability ≤20% over trace:",
		"books: seedless",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}
