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

// runFigures regenerates every table and figure of the paper's
// evaluation from the reproduction's models, simulators and synthetic
// datasets. ASCII renderings go to stdout; CSV series are written under
// the output directory for external plotting:
//
//	swarmavail figures [-fig all|fig1|fig3|fig4|fig5|fig6a|fig6b|fig6c|fig7|sec2.3|table-bm|...]
//	                   [-scale quick|full] [-seed N] [-out DIR] [-list]
func runFigures(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		fig    = fs.String("fig", "all", "artefact ID to regenerate, or 'all'")
		scale  = fs.String("scale", "quick", "quick or full")
		seed   = fs.Int64("seed", 42, "random seed")
		outDir = fs.String("out", "out", "directory for CSV output ('' disables)")
		list   = fs.Bool("list", false, "list available artefacts and exit")
		width  = fs.Int("width", 72, "ASCII chart width")
		height = fs.Int("height", 16, "ASCII chart height")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list {
		for _, d := range experiments.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", d.ID, d.Description)
		}
		return nil
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		return refuse("scale", *scale, "quick or full")
	}

	var drivers []experiments.Driver
	if *fig == "all" {
		drivers = experiments.All()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			d, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				return usageError{fmt.Errorf("unknown artefact %q (use -list)", id)}
			}
			drivers = append(drivers, d)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	// A driver that fails does not stop the ones after it.
	var failed []error
	for _, d := range drivers {
		fmt.Fprintf(stdout, "==== %s — %s (scale=%s, seed=%d) ====\n", d.ID, d.Description, sc, *seed)
		res, err := d.Run(sc, *seed)
		if err != nil {
			failed = append(failed, fmt.Errorf("%s failed: %w", d.ID, err))
			continue
		}
		opts := experiments.RenderOptions{Width: *width, Height: *height, CSVDir: *outDir}
		if err := experiments.WriteResult(stdout, res, opts); err != nil {
			failed = append(failed, fmt.Errorf("emitting %s: %w", d.ID, err))
		}
		fmt.Fprintln(stdout)
	}
	return errors.Join(failed...)
}
