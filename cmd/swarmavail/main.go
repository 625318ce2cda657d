// Command swarmavail is the repository's model-leg tool: the paper's §3
// model, its §4 testbed and the synthetic §2 campaign from one command
// line. Its subcommands share one flag parser and one exit path:
//
//	swarmavail model    evaluate the availability model for a swarm and its bundles
//	swarmavail sim      run the block-level swarm simulator for a bundle of identical files
//	swarmavail figures  regenerate the paper's tables and figures (ASCII to stdout, CSV under -out)
//	swarmavail study    generate, persist, re-read and analyse the synthetic measurement campaign
//
// `swarmavail <subcommand> -h` lists a subcommand's flags. `model` and
// `sim` default to the §4.3 testbed (experiments.Sec43). Exit status: 0
// on success and for -h, 2 for a command line the tool refuses (one
// line on stderr naming the flag; the flag package adds the usage to
// its own refusals), 1 for anything that fails after that.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// usageError is a command line the tool refuses: exit status 2, as the
// flag package's own refusals.
type usageError struct{ error }

// refuse is the usage error for a flag whose value is outside want.
func refuse(name string, value any, want string) error {
	return usageError{fmt.Errorf("-%s %v: must be %s", name, value, want)}
}

// errReported is a refusal the flag package has already printed, with
// the usage.
var errReported = usageError{errors.New("flag: parse error")}

// subcommand declares its flags on fs, parses args and does the work.
type subcommand func(fs *flag.FlagSet, args []string, stdout io.Writer) error

var subcommands = map[string]subcommand{
	"model":   runModel,
	"sim":     runSim,
	"figures": runFigures,
	"study":   runStudy,
}

// run is the whole tool: main adds only the exit, so a test drives
// exactly what a shell does.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{""}
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "swarmavail: unknown subcommand %q\n"+
			"usage: swarmavail model|sim|figures|study [flags]   (swarmavail <subcommand> -h lists them)\n", args[0])
		return 2
	}
	fs := flag.NewFlagSet("swarmavail "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := sub(fs, args[1:], stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != errReported {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
	}
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// parse is fs.Parse plus the check every float flag shares: strconv
// reads "NaN" and "Inf" as floats, and no flag of this tool means
// anything at either — a NaN rate panics the event queue, an infinite
// one never lets it reach its horizon.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errReported
	}
	var bad error
	fs.VisitAll(func(f *flag.Flag) {
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && bad == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			bad = refuse(f.Name, v, "a finite number")
		}
	})
	return bad
}
