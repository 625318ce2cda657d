package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swarmavail/internal/trace"
)

// replayAndServe runs the real entry point over a study and a census
// with -verify and -listen, and returns everything it printed up to the
// serving line plus the /v1/state it then serves.
func replayAndServe(t *testing.T, study, census string, writers int) (stdout string, state []byte) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	// Buffered past anything run prints after the serving line, so the
	// reader never blocks while the test is waiting on done.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(r); sc.Scan(); {
			lines <- sc.Text()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			replay: study, census: census, verify: true, writers: writers,
			listen: "127.0.0.1:0", shards: 3,
		})
	}()
	var out strings.Builder
	var addr string
	for addr == "" {
		select {
		case line := <-lines:
			out.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "availd: serving on "); ok {
				addr = strings.Fields(rest)[0]
			}
		case err := <-done:
			t.Fatalf("run(writers=%d) ended before serving: %v\n%s", writers, err, out.String())
		case <-time.After(60 * time.Second):
			t.Fatalf("run(writers=%d) never served\n%s", writers, out.String())
		}
	}
	state = fetch(t, "http://"+addr+"/v1/state?consistent=1")
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run(writers=%d): %v", writers, err)
	}
	w.Close()
	for range lines {
	}
	return out.String(), state
}

// TestReplayVerifyEndToEnd is the smoke for `availd -replay … -census …
// -verify`: the online statistics must verify against the offline
// analysis riding the same scan, with concurrent writers, and the
// resulting state must not depend on how many writers there were.
func TestReplayVerifyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	study, census := filepath.Join(dir, "study.jsonl"), filepath.Join(dir, "census.jsonl")
	var buf bytes.Buffer
	if err := trace.WriteTraces(&buf, trace.GenerateStudy(trace.DefaultStudyConfig(300, 11))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(study, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := trace.WriteSnapshots(&buf, trace.GenerateSnapshot(trace.SnapshotConfig{Seed: 12, NumSwarms: 2000})); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(census, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	out4, state4 := replayAndServe(t, study, census, 4)
	for _, want := range []string{
		"replayed 300 swarms",
		"verify: 300 swarms, max |online − offline| availability = 0 ",
		"verify: OK",
		"replayed 2000 census snapshots",
		"verify: bundling counters identical to offline analysis",
	} {
		if !strings.Contains(out4, want) {
			t.Errorf("writers=4 stdout lacks %q\n%s", want, out4)
		}
	}
	out1, state1 := replayAndServe(t, study, census, 1)
	if !strings.Contains(out1, "verify: OK") {
		t.Errorf("writers=1 stdout lacks verify: OK\n%s", out1)
	}
	if !bytes.Equal(state4, state1) {
		t.Errorf("/v1/state differs between -writers 4 (%d bytes) and -writers 1 (%d bytes)", len(state4), len(state1))
	}
}
