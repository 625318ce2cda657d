package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"swarmavail/internal/bittorrent/tracker"
)

// runTracker is `bt tracker`: HTTP announce/scrape on -addr and,
// optionally, the BEP 15 UDP protocol on -udp. Both front ends serve the
// same swarm state, so peers may mix schemes freely.
func runTracker(ctx context.Context, fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	addr := fs.String("addr", "127.0.0.1:7070", "HTTP listen address")
	udpAddr := fs.String("udp", "", "UDP (BEP 15) listen address (empty = HTTP only)")
	if err := parse(fs, args); err != nil {
		return err
	}

	srv := tracker.NewServer()
	ln, closeHTTP, err := srv.Serve(*addr)
	if err != nil {
		return err
	}
	defer closeHTTP()
	fmt.Fprintf(stdout, "bt tracker: listening on http://%s/announce\n", ln.Addr())
	if *udpAddr != "" {
		pc, closeUDP, err := srv.ListenUDP(*udpAddr)
		if err != nil {
			return err
		}
		defer closeUDP()
		fmt.Fprintf(stdout, "bt tracker: listening on udp://%s\n", pc.LocalAddr())
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "bt tracker: shutting down")
	return nil
}
