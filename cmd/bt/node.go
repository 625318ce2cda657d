package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/peer"
	"swarmavail/internal/obs"
)

// runNode is `bt node`, a BitTorrent peer in one of three roles.
//
// Create a torrent — several comma-separated content files publish a
// bundle (one swarm carrying them all, as the paper studies):
//
//	bt node -create -announce http://127.0.0.1:7070/announce \
//	        -torrent bundle.torrent -content ep1.avi,ep2.avi [-piece 262144]
//
// Seed (content files concatenate in torrent order):
//
//	bt node -torrent bundle.torrent -content ep1.avi,ep2.avi
//
// Leech (the bundle is written as one concatenated file):
//
//	bt node -torrent bundle.torrent -out downloaded.bin
func runNode(ctx context.Context, fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	var (
		create      = fs.Bool("create", false, "create a torrent from -content and exit")
		torrentPath = fs.String("torrent", "", "torrent file path (required)")
		contentPath = fs.String("content", "", "content file (create/seed)")
		outPath     = fs.String("out", "", "output file (leech)")
		announce    = fs.String("announce", "http://127.0.0.1:7070/announce", "tracker URL (create)")
		pieceLen    = fs.Int64("piece", 256*1024, "piece length in bytes (create)")
		listen      = fs.String("listen", "127.0.0.1:0", "peer listen address")
		dialTimeout = fs.Duration("dial-timeout", 0, "peer dial timeout (0 = default)")
		admin       = fs.String("admin", "", "admin listen address for /metrics, /debug/vars and pprof (e.g. 127.0.0.1:8649)")
		pprofOn     = fs.Bool("pprof", false, "enable net/http/pprof on the -admin listener")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *create {
		return createTorrent(stdout, *torrentPath, *contentPath, *announce, *pieceLen)
	}
	tor, err := loadTorrent(*torrentPath)
	if err != nil {
		return err
	}

	// The peer writes its announce/dial/piece series onto this registry;
	// -admin exposes it (plus process metrics and opt-in pprof).
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	stopAdmin, err := startAdmin(fs.Name(), *admin, reg, *pprofOn, stdout, stderr)
	if err != nil {
		return err
	}
	defer stopAdmin()

	cfg := peer.Config{
		Torrent:     tor,
		ListenAddr:  *listen,
		DialTimeout: *dialTimeout,
		Metrics:     reg,
		// Classified tracker/dial events reach the console: "announce
		// failed (temporary …)" is the tracker briefly down and being
		// retried with backoff; "announce rejected (fatal …)" means the
		// tracker answered and refused us (e.g. a torrent it does not
		// serve).
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, "bt node: "+format+"\n", args...)
		},
	}
	role := "leeching"
	if *contentPath != "" {
		if cfg.Content, _, err = readContents(*contentPath); err != nil {
			return err
		}
		role = "seeding"
	}
	n, err := peer.New(cfg)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	defer n.Stop()
	fmt.Fprintf(stdout, "bt node: %s %q on %s (infohash %s)\n", role, tor.Info.Name, n.Addr(), n.InfoHash())

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	done := n.Done()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stdout, "bt node: stopping")
			return nil
		case <-done:
			done = nil // write once, keep seeding
			if *outPath != "" {
				if err := os.WriteFile(*outPath, n.Bytes(), 0o644); err != nil {
					return fmt.Errorf("writing output: %w", err)
				}
				fmt.Fprintf(stdout, "bt node: download complete, wrote %s; seeding until interrupted\n", *outPath)
			}
		case <-ticker.C:
			have, total := n.Progress()
			fmt.Fprintf(stdout, "bt node: %d/%d pieces, %d connections\n", have, total, n.NumConns())
		}
	}
}

// readContents loads the comma-separated content files in order: the
// byte layout of a multi-file torrent, and each file's length.
func readContents(paths string) (content []byte, files []metainfo.File, err error) {
	for _, p := range strings.Split(paths, ",") {
		p = strings.TrimSpace(p)
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, metainfo.File{Path: filepath.Base(p), Length: int64(len(b))})
		content = append(content, b...)
	}
	return content, files, nil
}

// createTorrent builds a torrent over one or more content files; two or
// more files make a bundle.
func createTorrent(stdout io.Writer, torrentPath, contentPaths, announce string, pieceLen int64) error {
	if torrentPath == "" {
		return errNoTorrent
	}
	if contentPaths == "" {
		return errors.New("-content is required with -create")
	}
	content, files, err := readContents(contentPaths)
	if err != nil {
		return err
	}
	name := files[0].Path
	if len(files) > 1 {
		name = fmt.Sprintf("bundle-of-%d", len(files))
	}
	info, err := metainfo.New(name, pieceLen, files, content)
	if err != nil {
		return err
	}
	tor := &metainfo.Torrent{Announce: announce, Info: *info}
	raw, err := tor.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(torrentPath, raw, 0o644); err != nil {
		return err
	}
	h, err := info.Hash()
	if err != nil {
		return err
	}
	kind := "file"
	if info.IsBundle() {
		kind = fmt.Sprintf("bundle of %d files", len(files))
	}
	fmt.Fprintf(stdout, "bt node: wrote %s (%s, %d pieces, infohash %s)\n",
		torrentPath, kind, info.NumPieces(), h)
	return nil
}
