package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// startAvaild boots one serve() loop and returns its API and binary
// ingest addresses.
func startAvaild(t *testing.T, ctx context.Context, e *ingest.Engine, opts options) (api, bin net.Addr, served chan error) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	binReady := make(chan net.Addr, 1)
	opts.binReady = binReady
	served = make(chan error, 1)
	go func() { served <- serve(ctx, e, opts, ready, nil) }()
	select {
	case api = <-ready:
	case err := <-served:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}
	if opts.ingestBin != "" {
		bin = <-binReady
	}
	return api, bin, served
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return body
}

// TestStreamIngestHTTPParityE2E boots two complete daemons — one fed
// over POST /v1/ingest (JSONL), one over the -ingest-bin binary stream
// — and requires their served /v1/summary and /v1/availability/cdf
// bodies to be byte-identical.
func TestStreamIngestHTTPParityE2E(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	jsonE := ingest.New(ingest.Config{Shards: 3})
	jsonAPI, _, jsonServed := startAvaild(t, ctx, jsonE, options{listen: "127.0.0.1:0"})
	binE := ingest.New(ingest.Config{Shards: 3})
	binAPI, binAddr, binServed := startAvaild(t, ctx, binE,
		options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0"})

	recs := make([]ingest.Record, 0, 600)
	for swarm := 0; swarm < 75; swarm++ {
		for k := 0; k < 8; k++ {
			recs = append(recs, ingest.Record{
				SwarmID: swarm,
				PeerID:  uint64(k + 1),
				Seed:    k%3 == 0,
				Online:  k%5 != 4,
				Time:    float64(k) / 3,
			})
		}
	}
	// JSON path: acknowledged batches over HTTP.
	for i := 0; i < len(recs); i += 100 {
		end := i + 100
		if end > len(recs) {
			end = len(recs)
		}
		if err := pushBatch(fmt.Sprintf("http://%s/v1/ingest", jsonAPI), recs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	// Binary path: the same records through a streaming client.
	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: binAddr.String(), BatchSize: 73})
	for _, rec := range recs {
		if err := c.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	jsonE.Flush()
	binE.Flush()

	for _, path := range []string{"/v1/summary", "/v1/availability/cdf", "/v1/availability/cdf?q=0.1,0.5,0.9"} {
		jsonBody := fetch(t, fmt.Sprintf("http://%s%s", jsonAPI, path))
		binBody := fetch(t, fmt.Sprintf("http://%s%s", binAPI, path))
		if !bytes.Equal(jsonBody, binBody) {
			t.Errorf("%s diverged\n--- json ---\n%s\n--- binary ---\n%s", path, jsonBody, binBody)
		}
	}

	cancel()
	for _, served := range []chan error{jsonServed, binServed} {
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not drain")
		}
	}
}

// TestStreamMetricsE2E pushes over the binary listener and asserts the
// ingest_stream_* series appear on /metrics with the right values —
// including the error counter after a deliberately corrupt frame.
func TestStreamMetricsE2E(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Durable, so the journal's wal_append_frames rides the same scrape.
	dir := t.TempDir()
	e, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	api, bin, served := startAvaild(t, ctx, e,
		options{listen: "127.0.0.1:0", ingestBin: "127.0.0.1:0", dataDir: dir})

	const frames, per = 7, 20
	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: bin.String(), BatchSize: per})
	for f := 0; f < frames; f++ {
		for k := 0; k < per; k++ {
			if err := c.Observe(ingest.Record{SwarmID: f, PeerID: uint64(k + 1), Online: true, Time: float64(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A corrupt envelope must be rejected, counted, and change nothing.
	conn, err := net.Dial("tcp", bin.String())
	if err != nil {
		t.Fatal(err)
	}
	env := wal.AppendFrame(nil, []byte{0x01, 0xde, 0xad})
	env[len(env)-1] ^= 0xFF
	if _, err := conn.Write(env); err != nil {
		t.Fatal(err)
	}
	// Wait for the ERR frame so the scrape below observes the rejection.
	if _, err := wal.NewFrameReader(conn).Next(); err != nil {
		t.Fatalf("want ERR frame, got %v", err)
	}
	conn.Close()
	e.Flush()

	series := scrapeMetrics(t, api)
	if got := series["ingest_stream_frames_total"]; got != frames {
		t.Errorf("ingest_stream_frames_total = %v, want %d", got, frames)
	}
	if got := series["ingest_records_total"]; got != frames*per {
		t.Errorf("ingest_records_total = %v, want %d", got, frames*per)
	}
	if got := series["ingest_stream_conns_total"]; got != 2 {
		t.Errorf("ingest_stream_conns_total = %v, want 2", got)
	}
	if got := series["ingest_stream_errors_total"]; got != 1 {
		t.Errorf("ingest_stream_errors_total = %v, want 1", got)
	}
	env = wal.AppendFrame(nil, []byte{0x01})
	minBytes := float64(frames)*float64(len(env)) - 1 // every DATA frame is bigger than an empty one
	if got := series["ingest_stream_bytes_total"]; got < minBytes {
		t.Errorf("ingest_stream_bytes_total = %v, want > %v", got, minBytes)
	}
	// Every accepted frame was journaled, by at most one append (one
	// fsync) each — fewer when the server found a backlog to group.
	if got := series["wal_append_frames_sum"]; got != frames {
		t.Errorf("wal_append_frames_sum = %v, want %d", got, frames)
	}
	if got := series["wal_append_frames_count"]; got < 1 || got > frames {
		t.Errorf("wal_append_frames_count = %v, want 1..%d", got, frames)
	}
	if got, want := series["wal_fsync_seconds_count"], series["wal_append_frames_count"]; got < want {
		t.Errorf("wal_fsync_seconds_count = %v, below the %v appends it must cover", got, want)
	}
	fams := metricFamilies(series)
	for _, name := range []string{"ingest_stream_frames_total", "ingest_stream_bytes_total",
		"ingest_stream_conns_total", "ingest_stream_errors_total", "ingest_stream_ack_window",
		"wal_append_frames"} {
		if !fams[name] {
			t.Errorf("no %s family in scrape", name)
		}
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}
}

// TestStreamCrashRecoveryChild is the re-exec target of
// TestStreamCrashRecoverySIGKILL: a durable availd with its binary
// listener up, killable without any drain.
func TestStreamCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv("AVAILD_STREAM_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-recovery child; run via TestStreamCrashRecoverySIGKILL")
	}
	e, _, err := ingest.OpenDurable(
		ingest.Config{Shards: 3, BatchSize: 64},
		ingest.DurabilityConfig{Dir: dir}, // default fsync: acked ⇒ durable
	)
	if err != nil {
		t.Fatalf("child recover: %v", err)
	}
	binReady := make(chan net.Addr, 1)
	go func() {
		addr := <-binReady
		fmt.Printf("CHILD_BIN %s\n", addr)
	}()
	err = serve(context.Background(), e, options{
		listen:          "127.0.0.1:0",
		ingestBin:       "127.0.0.1:0",
		binReady:        binReady,
		dataDir:         dir,
		checkpointEvery: 75 * time.Millisecond,
	}, nil, nil)
	t.Fatalf("child serve returned before SIGKILL: %v", err)
}

// TestStreamCrashRecoverySIGKILL extends the SIGKILL harness to the
// binary stream: ONE StreamClient outlives the server's crashes,
// redialing each new incarnation and resending its unacked window. The
// client keeps a full 32-frame window in flight and the first three
// kills land while it is streaming, so they fall inside commit groups —
// frames journaled but not yet acked, groups half written. The
// recovered engine must hold exactly the acknowledged ledger — keyed
// frames make the cross-crash resends exactly-once, so nothing is lost
// and nothing is double-applied.
func TestStreamCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash harness")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// The client persists across rounds; its dial func follows the
	// child's current address.
	var childBin atomic.Value // string
	childBin.Store("")
	c := ingest.NewStreamClient(ingest.StreamClientConfig{
		Source: "crash-monitor",
		Dial: func() (net.Conn, error) {
			addr, _ := childBin.Load().(string)
			if addr == "" {
				return nil, fmt.Errorf("child not up yet")
			}
			return net.DialTimeout("tcp", addr, time.Second)
		},
		BatchSize:    40,
		Window:       32,
		RetryBackoff: 20 * time.Millisecond,
		MaxAttempts:  400,
	})

	const frames = 4000
	mkBatch := func(seq int) []ingest.Record {
		recs := make([]ingest.Record, 40)
		for i := range recs {
			recs[i] = ingest.Record{
				SwarmID: (seq*len(recs) + i) % 97,
				PeerID:  uint64(seq%3 + 1),
				Seed:    i%3 != 2,
				Online:  (seq+i)%2 == 0,
				Time:    float64(seq*10+i) / 100,
			}
		}
		return recs
	}
	// The producer streams the whole ledger without pausing for the
	// crashes; its final Flush returns once every frame is acknowledged,
	// so the ledger is everything it sent.
	var ledger []ingest.Record
	for seq := 0; seq < frames; seq++ {
		ledger = append(ledger, mkBatch(seq)...)
	}
	produced := make(chan error, 1)
	go func() {
		for _, rec := range ledger {
			if err := c.Observe(rec); err != nil {
				produced <- fmt.Errorf("observe: %w", err)
				return
			}
		}
		produced <- c.Flush()
	}()

	for round := 0; round < 4; round++ {
		cmd := exec.Command(exe, "-test.run=^TestStreamCrashRecoveryChild$", "-test.v")
		cmd.Env = append(os.Environ(), "AVAILD_STREAM_CRASH_DIR="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if addr, ok := strings.CutPrefix(sc.Text(), "CHILD_BIN "); ok {
					addrCh <- addr
					break
				}
			}
			io.Copy(io.Discard, stdout)
		}()
		select {
		case addr := <-addrCh:
			childBin.Store(addr)
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("round %d: child never reported its stream address", round)
		}

		if round < 3 {
			// SIGKILL mid-stream, once this incarnation has acknowledged
			// its quarter of the ledger.
			deadline := time.Now().Add(30 * time.Second)
			for c.Acked() < uint64((round+1)*frames/4) {
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("round %d: only %d of %d frames acknowledged", round, c.Acked(), frames)
				}
				time.Sleep(time.Millisecond)
			}
		} else {
			// Last incarnation: everything acknowledged, dwell past a
			// checkpoint tick, then SIGKILL mid-everything.
			select {
			case err := <-produced:
				if err != nil {
					t.Fatalf("producer: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("producer never settled its window")
			}
			time.Sleep(200 * time.Millisecond)
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()
	}
	if r := c.Reconnects(); r < 3 {
		t.Fatalf("client reconnected %d times across 3 mid-stream crashes", r)
	}

	e, rs, err := ingest.OpenDurable(ingest.Config{Shards: 3}, ingest.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer e.Close()
	t.Logf("recovery: %+v; client sent %d frames, %d reconnects", rs, c.Sent(), c.Reconnects())

	ref := ingest.New(ingest.Config{Shards: 3})
	defer ref.Close()
	for i := 0; i < len(ledger); i += 40 {
		ops := make([]ingest.Op, 40)
		for k, rec := range ledger[i : i+40] {
			ops[k] = ingest.EventOp(rec)
		}
		if err := ref.Submit(ops); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()

	ids := make([]int, 0, 97)
	seen := map[int]bool{}
	for _, rec := range ledger {
		if !seen[rec.SwarmID] {
			seen[rec.SwarmID] = true
			ids = append(ids, rec.SwarmID)
		}
	}
	sort.Ints(ids)
	got := engineFingerprint(t, e, ids)
	want := engineFingerprint(t, ref, ids)
	if got != want {
		t.Fatalf("recovered state diverged from acked stream ledger after 4 SIGKILLs\n--- recovered ---\n%s--- reference ---\n%s", got, want)
	}
	if e.Summary().Events != uint64(len(ledger)) {
		t.Fatalf("recovered %d events, acked %d (lost or double-applied frames)", e.Summary().Events, len(ledger))
	}
}
