// Command figures regenerates every table and figure of the paper's
// evaluation from the reproduction's models, simulators and synthetic
// datasets. ASCII renderings go to stdout; CSV series are written under
// the output directory for external plotting.
//
// Usage:
//
//	figures [-fig all|fig1|fig3|fig4|fig5|fig6a|fig6b|fig6c|fig7|sec2.3|table-bm|...]
//	        [-scale quick|full] [-seed N] [-out DIR] [-list]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"swarmavail/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.String("fig", "all", "artefact ID to regenerate, or 'all'")
		scale  = fs.String("scale", "quick", "quick or full")
		seed   = fs.Int64("seed", 42, "random seed")
		outDir = fs.String("out", "out", "directory for CSV output ('' disables)")
		list   = fs.Bool("list", false, "list available artefacts and exit")
		width  = fs.Int("width", 72, "ASCII chart width")
		height = fs.Int("height", 16, "ASCII chart height")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, d := range experiments.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", d.ID, d.Description)
		}
		return 0
	}

	sc := experiments.Quick
	if *scale == "full" {
		sc = experiments.Full
	}

	var drivers []experiments.Driver
	if *fig == "all" {
		drivers = experiments.All()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			d, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "figures: unknown artefact %q (use -list)\n", id)
				return 2
			}
			drivers = append(drivers, d)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
	}

	failed := false
	for _, d := range drivers {
		fmt.Fprintf(stdout, "==== %s — %s (scale=%s, seed=%d) ====\n", d.ID, d.Description, sc, *seed)
		res, err := d.Run(sc, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "figures: %s failed: %v\n", d.ID, err)
			failed = true
			continue
		}
		opts := experiments.RenderOptions{Width: *width, Height: *height, CSVDir: *outDir}
		if err := experiments.WriteResult(stdout, res, opts); err != nil {
			fmt.Fprintf(stderr, "figures: emitting %s: %v\n", d.ID, err)
			failed = true
		}
		fmt.Fprintln(stdout)
	}
	if failed {
		return 1
	}
	return 0
}
