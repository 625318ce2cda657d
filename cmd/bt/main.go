// Command bt is the repository's BitTorrent tool — the measurement leg
// of the pipeline on real sockets. Its subcommands share one torrent
// loader, one admin listener and one exit path:
//
//	bt tracker   run the tracker private swarms announce to (HTTP, plus UDP/BEP 15)
//	bt node      create a torrent (or bundle), seed it, or leech it to disk
//	bt mon       §2-style monitoring: probe the swarm, report seed availability,
//	             stream the observations into availd/availgw
//
// A loopback swarm, monitored:
//
//	bt tracker &
//	bt node -create -torrent film.torrent -content film.bin
//	bt node -torrent film.torrent -content film.bin &
//	bt mon  -torrent film.torrent -count 3
//
// `bt <subcommand> -h` lists a subcommand's flags. Every subcommand runs
// until it is done or interrupted (SIGINT/SIGTERM), and shuts down
// cleanly either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bt: %v\n", err)
		os.Exit(exitStatus(err))
	}
}

// usageError is a command line the tool refuses: exit status 2, as the
// flag package's own refusals.
type usageError struct{ error }

func exitStatus(err error) int {
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// subcommand declares its flags on fs, parses args and does the work.
type subcommand func(ctx context.Context, fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error

var subcommands = map[string]subcommand{
	"tracker": runTracker,
	"node":    runNode,
	"mon":     runMon,
}

// run is the whole tool: main adds only the signal context and the exit
// status, so a test drives exactly what a shell does.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		args = []string{""}
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintln(stderr, "usage: bt tracker|node|mon [flags]   (bt <subcommand> -h lists them)")
		return usageError{fmt.Errorf("unknown subcommand %q", args[0])}
	}
	fs := flag.NewFlagSet("bt "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := sub(ctx, fs, args[1:], stdout, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// parse wraps fs.Parse so that a malformed command line (which the flag
// package has already reported, with usage) exits 2.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

var errNoTorrent = usageError{errors.New("-torrent is required")}

// loadTorrent reads the -torrent file every subcommand but tracker needs.
func loadTorrent(path string) (*metainfo.Torrent, error) {
	if path == "" {
		return nil, errNoTorrent
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return metainfo.Unmarshal(raw)
}

// startAdmin serves /metrics, /debug/vars and (opt-in) pprof for reg on
// addr until the returned stop is called; addr "" starts nothing. name
// ("bt node") prefixes its lines.
func startAdmin(name, addr string, reg *obs.Registry, pprof bool, stdout, stderr io.Writer) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen: %w", err)
	}
	srv := &http.Server{Handler: obs.AdminHandler(reg, pprof), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "%s: admin server: %v\n", name, err)
		}
	}()
	fmt.Fprintf(stdout, "%s: admin on %s (pprof %v)\n", name, ln.Addr(), pprof)
	return func() { _ = srv.Close() }, nil
}
