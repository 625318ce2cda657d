package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/ingest"
)

// console is a subcommand's stdout or stderr: safe for the goroutines
// that write it, and searchable by the test that waits on a line.
type console struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *console) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *console) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// await returns the first submatch of re once a complete line matching it
// has been printed, as bench/stack.go reads availd's addresses.
func (c *console) await(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(`(?m)^` + re + `$`)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := rx.FindStringSubmatch(c.String()); m != nil {
			return m[len(m)-1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no line matching %q in:\n%s", re, c.String())
		}
	}
}

// process is one `bt` invocation running in the background.
type process struct {
	out, err console
	stop     context.CancelFunc
	done     chan error
}

// start runs `bt args...` in-process; the test's cleanup interrupts it
// and requires a clean exit.
func start(t *testing.T, args ...string) *process {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p := &process{stop: cancel, done: make(chan error, 1)}
	go func() { p.done <- run(ctx, args, &p.out, &p.err) }()
	t.Cleanup(func() { p.interrupt(t) })
	return p
}

// interrupt is the process's Ctrl-C: it must return nil, promptly.
func (p *process) interrupt(t *testing.T) {
	t.Helper()
	p.stop()
	select {
	case err := <-p.done:
		if err != nil {
			t.Errorf("interrupted process: %v\nstderr:\n%s", err, p.err.String())
		}
		p.done <- nil // a second interrupt (the cleanup's) finds it gone
	case <-time.After(20 * time.Second):
		t.Fatalf("process ignored its interrupt; stdout:\n%s", p.out.String())
	}
}

// bt runs `bt args...` to completion.
func bt(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errOut console
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = run(ctx, args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// bundleInfoHash is what the parent commit's `btnode -create -piece 16384
// -content ep1.bin,ep2.bin` wrote for the smoke's two content files
// (checked once against that binary): `bt node -create` must publish the
// same swarm.
const bundleInfoHash = "fd1779aab7a8ec3369f11427fdfe5fcbf1bf24d2"

// TestLoopbackSmoke is the measurement leg end to end over real sockets,
// every step through run: a tracker, a two-file bundle published over its
// UDP announce, a seeder, a leecher whose output equals the content, a
// streaming fleet whose every record the engine applies exactly once and
// whose every interval is closed when it exits, and the interactive
// monitor's per-round lines.
func TestLoopbackSmoke(t *testing.T) {
	dir := t.TempDir()
	ep1, ep2 := filepath.Join(dir, "ep1.bin"), filepath.Join(dir, "ep2.bin")
	content := make([]byte, 100_000)
	for i := range content {
		content[i] = byte(i*7 + i>>8)
	}
	const cut = 41_000 // not a piece boundary: a piece spans both files
	for path, b := range map[string][]byte{ep1: content[:cut], ep2: content[cut:]} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torrent := filepath.Join(dir, "bundle.torrent")

	tr := start(t, "tracker", "-addr", "127.0.0.1:0", "-udp", "127.0.0.1:0")
	tr.out.await(t, `bt tracker: listening on http://(\S+)/announce`)
	udp := tr.out.await(t, `bt tracker: listening on (udp://\S+)`)

	out, _, err := bt(t, "node", "-create", "-announce", udp, "-torrent", torrent,
		"-content", ep1+", "+ep2, "-piece", "16384")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if want := "(bundle of 2 files, 7 pieces, infohash " + bundleInfoHash + ")"; !strings.Contains(out, want) {
		t.Fatalf("create printed %q, want it to contain %q", out, want)
	}

	seeder := start(t, "node", "-torrent", torrent, "-content", ep1+","+ep2)
	seeder.out.await(t, `bt node: seeding "bundle-of-2" on (\S+) \(infohash `+bundleInfoHash+`\)`)

	copyPath := filepath.Join(dir, "copy.bin")
	leecher := start(t, "node", "-torrent", torrent, "-out", copyPath)
	leecher.out.await(t, `bt node: download complete, wrote (\S+); seeding until interrupted`)
	if got, err := os.ReadFile(copyPath); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("leeched %d bytes (err %v), want the %d content bytes concatenated", len(got), err, len(content))
	}
	leecher.interrupt(t)
	leecher.out.await(t, `(bt node: stopping)`)

	// The fleet streams into a node's own stream front over a fresh engine.
	e := ingest.New(ingest.Config{Shards: 2})
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := ingest.NewStreamServer(e, nil)
	served := make(chan error, 1)
	go func() { served <- ss.Serve(ln) }()
	defer func() { ln.Close(); ss.Close(); <-served }()

	const swarm = 7
	out, errOut, err := bt(t, "mon", "-torrent", torrent, "-fleet", "3", "-count", "2", "-interval", "200ms",
		"-timeout", "2s", "-bitfield-wait", "200ms", "-stream", ln.Addr().String(), "-swarm", fmt.Sprint(swarm), "-source", "smoke")
	if err != nil {
		t.Fatalf("fleet: %v\nstderr:\n%s", err, errOut)
	}
	var monitors, rounds, failures, peers int
	var records uint64
	var avail float64
	done := out[strings.Index(out, "bt mon: fleet done"):]
	if _, err := fmt.Sscanf(done, "bt mon: fleet done  monitors=%d rounds=%d failures=%d peers-observed=%d records=%d seed-availability=%f\n",
		&monitors, &rounds, &failures, &peers, &records, &avail); err != nil {
		t.Fatalf("summary line %q: %v", done, err)
	}
	if monitors != 3 || rounds != 6 || failures != 0 || peers < 6 || records == 0 || avail != 1 {
		t.Fatalf("fleet summary %q, want 3 monitors × 2 rounds, no failure, the seed seen every round", done)
	}
	if strings.Contains(out, "leechers=") {
		t.Fatalf("a streaming fleet printed per-round lines:\n%s", out)
	}
	e.Flush()
	if applied := uint64(e.Registry().Sum("ingest_applied_total")); applied != records {
		t.Fatalf("engine applied %d ops, fleet reported records=%d: lost or duplicated", applied, records)
	}
	st, ok := e.Swarm(swarm)
	if !ok || st.Events != records {
		t.Fatalf("swarm %d: found=%v events=%d, want the fleet's %d records", swarm, ok, st.Events, records)
	}
	// Each monitor closed its differ on the way out: every arrival it
	// streamed has its departure.
	if st.SeedsOnline != 0 || st.LeechersOnline != 0 {
		t.Fatalf("fleet exited leaving %d seeds and %d leechers online: an availability interval never closed",
			st.SeedsOnline, st.LeechersOnline)
	}

	// No -fleet, no -stream: the interactive monitor, same loop.
	out, errOut, err = bt(t, "mon", "-torrent", torrent, "-count", "2", "-interval", "200ms",
		"-timeout", "2s", "-bitfield-wait", "200ms")
	if err != nil {
		t.Fatalf("interactive monitor: %v\nstderr:\n%s", err, errOut)
	}
	perRound := regexp.MustCompile(`(?m)^\d\d:\d\d:\d\d  peers=(\d+) seeds=(\d+) leechers=(\d+)  seed-availability=1\.00$`).FindAllStringSubmatch(out, -1)
	if len(perRound) != 2 {
		t.Fatalf("%d per-round lines for -count 2:\n%s", len(perRound), out)
	}
	for _, m := range perRound {
		if m[2] == "0" {
			t.Fatalf("round %q saw no seed with the seeder up", m[0])
		}
	}
	if n := strings.Count(out, "bt mon: fleet done  monitors=1 rounds=2 failures=0 "); n != 1 {
		t.Fatalf("%d summary lines, want one for 1 monitor × 2 rounds:\n%s", n, out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Fatalf("interactive monitor printed %d lines, want headline + 2 rounds + summary:\n%s", lines, out)
	}
}

// TestRefusals: what the tool will not run, and the status it exits with.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string // on stderr before main's own "bt: <err>" line
		errMsg string
	}{
		{"no subcommand", nil, 2, "usage: bt tracker|node|mon", `unknown subcommand ""`},
		{"unknown subcommand", []string{"seed"}, 2, "usage: bt tracker|node|mon", `unknown subcommand "seed"`},
		{"unknown flag", []string{"tracker", "-torrent", "x"}, 2, "Usage of bt tracker:", "flag provided but not defined"},
		{"mon without -torrent", []string{"mon", "-count", "1"}, 2, "", "-torrent is required"},
		{"node without -torrent", []string{"node", "-out", "x"}, 2, "", "-torrent is required"},
		{"create without -torrent", []string{"node", "-create", "-content", "x"}, 2, "", "-torrent is required"},
		{"create without -content", []string{"node", "-create", "-torrent", filepath.Join(t.TempDir(), "x.torrent")}, 1, "", "-content is required with -create"},
		{"torrent file missing", []string{"mon", "-torrent", filepath.Join(t.TempDir(), "absent.torrent")}, 1, "", "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := bt(t, tc.args...)
			if err == nil || exitStatus(err) != tc.status || !strings.Contains(err.Error(), tc.errMsg) {
				t.Fatalf("err %v (status %d), want status %d mentioning %q", err, exitStatus(err), tc.status, tc.errMsg)
			}
			if !strings.Contains(stderr, tc.stderr) || stdout != "" {
				t.Fatalf("stdout %q stderr %q, want stderr to contain %q and nothing on stdout", stdout, stderr, tc.stderr)
			}
		})
	}
	// -h is not a refusal: usage on stderr, status 0.
	if _, stderr, err := bt(t, "mon", "-h"); err != nil || !strings.Contains(stderr, "-fleet int") {
		t.Fatalf("bt mon -h: err %v, stderr %q", err, stderr)
	}
}
