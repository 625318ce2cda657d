// Command bench is the repo's end-to-end benchmark: it builds
// cmd/availd and cmd/availgw, runs them as child processes on loopback,
// drives them from one load process (one writer and one reader
// connection), checks that what they serve is correct, and prints every
// end-to-end metric by name with its unit. With -trace 1 it also
// reports the per-layer metrics and writes the spans it recorded.
//
//	cd bench && go run . -workload steady-66k -seed 1
//	cd bench && go run . -workload all -seed 1 -trace 1
//
// It finds the repo from the working directory, which may be the repo
// root or anything below it.
//
// See README.md for the metrics, the workloads and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same op stream")
	seconds := fs.Int("seconds", 8, "length of the measured windows together")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	profiles, err := loadProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = profileNames(profiles)
	} else if profiles[*workload] == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(profileNames(profiles), ", "))
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// SIGINT/SIGTERM end the context; every stack is closed (children
	// killed, data dirs removed) on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := 0
	for _, name := range names {
		rep, err := runWorkload(ctx, profiles[name], options{root: root, seed: *seed, seconds: *seconds, trace: *trace == 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if err := writeReport(root, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printReport(rep)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// writeReport saves the full report (fingerprint included) under
// bench/out, and a traced run's spans beside it.
func writeReport(root string, rep *report) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, rep.Workload+".json"), rep); err != nil {
		return err
	}
	if !rep.Traced {
		return nil
	}
	return writeJSON(filepath.Join(dir, rep.Workload+".trace.json"), struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{rep.Workload, rep.Seed, rep.Fingerprint, rep.Spans})
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// resultLine is the driver's contract: the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name with its unit, then the
// result line: the gated end-to-end metrics for an untraced run, the
// per-layer metrics for a traced one (whose end-to-end numbers, from
// half-length windows, are for orientation and for the ungated e2e.*).
func printReport(rep *report) {
	fp := rep.Fingerprint
	fmt.Printf("== %s  seed=%d seconds=%d traced=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Printf("   machine: %s, nproc=%d GOMAXPROCS=%d %s commit=%s\n", fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range measured {
		gate := fmt.Sprintf("gated, bound %.2f", d.Bound)
		if d.Bound == 0 {
			gate = "ungated, traced runs report e2e." + d.Name
		}
		fmt.Printf("   %-34s %14.6g %-10s (%s)\n", d.Name, rep.EndToEnd[d.Name], d.Unit, gate)
		if d.Bound > 0 && !rep.Traced {
			line.Metrics[d.Name] = metricValue{rep.EndToEnd[d.Name], d.Unit}
		}
	}
	fmt.Printf("   %-34s %14.6g ratio      (%d of %d)\n", "failed_ops_ratio", rep.FailedOpsRatio, rep.Failed, rep.Attempted)
	fmt.Printf("   samples: setup=%d ack=%d freshness=%d query=%d checkpoint=%d recovery=%d\n",
		rep.Samples["setup_s"], rep.Samples["ack_ms"], rep.Samples["freshness_ms"], rep.Samples["query_ms"],
		rep.Samples["checkpoint_s"], rep.Samples["recovery_s"])
	if rep.Traced {
		fmt.Println("   -- per layer (traced) --")
		for _, d := range perLayer {
			fmt.Printf("   %-34s %14.6g %s\n", d.Name, rep.PerLayer[d.Name], d.Unit)
			line.Metrics[d.Name] = metricValue{rep.PerLayer[d.Name], d.Unit}
		}
	}
	for _, n := range rep.Notes {
		fmt.Println("   note:", n)
	}
	raw, _ := json.Marshal(line)
	fmt.Println(string(raw))
}
