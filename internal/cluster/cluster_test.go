package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// testLeader is an in-process durable engine with the WAL-shipping
// routes mounted, standing in for a leader availd.
type testLeader struct {
	e   *ingest.Engine
	srv *httptest.Server
	dir string
}

func newTestLeader(t *testing.T) *testLeader {
	t.Helper()
	dir := t.TempDir()
	e, _, err := ingest.OpenDurable(
		ingest.Config{Shards: 2, BatchSize: 16},
		ingest.DurabilityConfig{Dir: dir},
	)
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	mux := http.NewServeMux()
	(&WALServer{Log: e.WAL(), Dir: dir}).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &testLeader{e: e, srv: srv, dir: dir}
}

// submit pushes one batch of synthetic events through the durable
// engine (journaled, so shippable).
func (l *testLeader) submit(t *testing.T, round, n int) {
	t.Helper()
	ops := make([]ingest.Op, n)
	for i := range ops {
		ops[i] = ingest.EventOp(ingest.Record{
			SwarmID: (round*n + i) % 37,
			PeerID:  uint64(round + 1),
			Seed:    i%3 != 2,
			Online:  (round+i)%2 == 0,
			Time:    float64(round*100+i) / 50,
		})
	}
	if err := l.e.Submit(ops); err != nil {
		t.Fatalf("leader submit: %v", err)
	}
}

// stateBytes renders an engine's full mergeable state, the equality
// currency of these tests.
func stateBytes(t *testing.T, e *ingest.Engine) []byte {
	t.Helper()
	e.Flush()
	raw, err := json.Marshal(e.Summary().State())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// promote is promotion spelled out — what availd's POST /v1/promote
// runs: stop shipping, then an ordinary crash recovery of the shipped
// directory.
func promote(f *Follower, cfg ingest.Config) (*ingest.Engine, ingest.RecoveryStats, error) {
	if err := f.Close(); err != nil {
		return nil, ingest.RecoveryStats{}, err
	}
	return ingest.OpenDurable(cfg, ingest.DurabilityConfig{Dir: f.cfg.Dir})
}

func TestFollowerCatchUpAndPromote(t *testing.T) {
	leader := newTestLeader(t)
	for r := 0; r < 10; r++ {
		leader.submit(t, r, 32)
	}

	f, err := NewFollower(FollowerConfig{
		LeaderURL: leader.srv.URL,
		Dir:       t.TempDir(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got, want := f.Shipped(), leader.e.WAL().LastSeq(); got != want {
		t.Fatalf("shipped %d, leader at %d", got, want)
	}

	// More writes land after the first catch-up; the next pass ships
	// just the delta.
	for r := 10; r < 15; r++ {
		leader.submit(t, r, 32)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if got, want := f.Shipped(), leader.e.WAL().LastSeq(); got != want {
		t.Fatalf("after delta: shipped %d, leader at %d", got, want)
	}

	promoted, rs, err := promote(f, ingest.Config{Shards: 2})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer promoted.Close()
	t.Logf("promotion recovery: %+v", rs)
	if got, want := stateBytes(t, promoted), stateBytes(t, leader.e); string(got) != string(want) {
		t.Fatalf("promoted state diverged from leader\n--- promoted ---\n%s\n--- leader ---\n%s", got, want)
	}
	leader.e.Close()
}

// TestFollowerOfConcurrentWriters: a leader taking keyed submits from two
// writers at once on one swarm — each toggling its own seed under a
// clock both share — and a follower shipping its WAL. After catch-up the
// promoted follower must serve the leader's /v1/state byte for byte:
// the journal the follower ships is the order the leader's shards
// applied. Each round is a fresh pair; unordered commits diverged in a
// few percent of rounds.
func TestFollowerOfConcurrentWriters(t *testing.T) {
	const rounds, writers, calls = 80, 2, 300
	diverged := 0
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		leader, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: dir, Fsync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		(&WALServer{Log: leader.WAL(), Dir: dir}).Register(mux)
		srv := httptest.NewServer(mux)

		var clock atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < calls; k++ {
					ev := ingest.Record{SwarmID: 1, PeerID: uint64(w + 1), Seed: true, Online: k%2 == 0, Time: float64(clock.Add(1)) / 100}
					if _, err := leader.SubmitKeyed(fmt.Sprintf("writer-%d", w), uint64(k+1), []ingest.Op{ingest.EventOp(ev)}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()

		f, err := NewFollower(FollowerConfig{LeaderURL: srv.URL, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(context.Background()); err != nil {
			t.Fatalf("sync: %v", err)
		}
		promoted, _, err := promote(f, ingest.Config{Shards: 2})
		if err != nil {
			t.Fatalf("promote: %v", err)
		}
		got, want := stateBytes(t, promoted), stateBytes(t, leader)
		promoted.Close()
		srv.Close()
		leader.Close()
		if string(got) != string(want) {
			if diverged == 0 {
				t.Errorf("round %d: the follower diverged from its leader\n--- follower ---\n%s\n--- leader ---\n%s", round, got, want)
			}
			diverged++
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d followers served a state their leader never served", diverged, rounds)
	}
}

// TestFollowerCheckpointBootstrap: a follower arriving after the leader
// checkpointed (journal truncated) must re-base on the checkpoint, then
// stream the tail.
func TestFollowerCheckpointBootstrap(t *testing.T) {
	leader := newTestLeader(t)
	for r := 0; r < 8; r++ {
		leader.submit(t, r, 32)
	}
	leader.e.Flush()
	if _, err := leader.e.Checkpoint(); err != nil {
		t.Fatalf("leader checkpoint: %v", err)
	}
	// A tail beyond the checkpoint, so the bootstrap path and the
	// streaming path both carry real data.
	for r := 8; r < 12; r++ {
		leader.submit(t, r, 32)
	}

	f, err := NewFollower(FollowerConfig{
		LeaderURL: leader.srv.URL,
		Dir:       t.TempDir(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if f.Bootstraps() != 1 {
		t.Fatalf("expected exactly one checkpoint bootstrap, got %d", f.Bootstraps())
	}
	if got, want := f.Shipped(), leader.e.WAL().LastSeq(); got != want {
		t.Fatalf("shipped %d, leader at %d", got, want)
	}

	promoted, _, err := promote(f, ingest.Config{Shards: 2})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer promoted.Close()
	if got, want := stateBytes(t, promoted), stateBytes(t, leader.e); string(got) != string(want) {
		t.Fatalf("bootstrapped state diverged from leader\n--- promoted ---\n%s\n--- leader ---\n%s", got, want)
	}
	leader.e.Close()
}

// TestFollowerBootstrapRejectsMalformedSeq: the checkpoint's sequence
// arrives in a header, and a value that is not wholly a number ("12abc")
// must fail the bootstrap rather than be read as its numeric prefix and
// name a checkpoint file the leader never wrote.
func TestFollowerBootstrapRejectsMalformedSeq(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/wal/stream", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "truncated", http.StatusGone)
	})
	mux.HandleFunc("/v1/wal/checkpoint", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Checkpoint-Seq", "12abc")
		_, _ = w.Write([]byte("not a checkpoint"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := t.TempDir()
	f, err := NewFollower(FollowerConfig{LeaderURL: srv.URL, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Bounded: read as 12, the bootstrap "succeeds" and Sync re-bases on
	// it for ever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Sync(ctx); err == nil || !strings.Contains(err.Error(), "X-Checkpoint-Seq") {
		t.Fatalf("sync against a malformed X-Checkpoint-Seq: %v, want an error naming the header", err)
	}
	if _, _, ok, err := ingest.NewestCheckpoint(dir); ok || err != nil {
		t.Fatalf("a checkpoint file landed from a refused bootstrap (ok=%v err=%v)", ok, err)
	}
}

// TestFollowerResume: a restarted follower resumes from its on-disk
// watermark instead of re-shipping history.
func TestFollowerResume(t *testing.T) {
	leader := newTestLeader(t)
	for r := 0; r < 6; r++ {
		leader.submit(t, r, 16)
	}
	dir := t.TempDir()
	f1, err := NewFollower(FollowerConfig{LeaderURL: leader.srv.URL, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	mark := f1.Shipped()
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := NewFollower(FollowerConfig{LeaderURL: leader.srv.URL, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Shipped() != mark {
		t.Fatalf("restarted follower lost its watermark: %d, had %d", f2.Shipped(), mark)
	}
	leader.submit(t, 6, 16)
	if err := f2.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := f2.Shipped(), leader.e.WAL().LastSeq(); got != want {
		t.Fatalf("resumed follower shipped %d, leader at %d", got, want)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	leader.e.Close()
}

// TestFollowerResumeAfterBootstrap: a follower restarted after a
// checkpoint bootstrap resumes past the checkpoint. Its journal holds no
// frame at or below the checkpoint, so the reopened journal must be
// advanced to it, or the leader's next frame lands under a wrong
// sequence and every poll fails until the numbering catches up.
func TestFollowerResumeAfterBootstrap(t *testing.T) {
	leader := newTestLeader(t)
	for r := 0; r < 8; r++ {
		leader.submit(t, r, 32)
	}
	leader.e.Flush()
	if _, err := leader.e.Checkpoint(); err != nil {
		t.Fatalf("leader checkpoint: %v", err)
	}
	dir := t.TempDir()
	f1, err := NewFollower(FollowerConfig{LeaderURL: leader.srv.URL, Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Sync(context.Background()); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if f1.Bootstraps() != 1 || f1.Shipped() != 8 {
		t.Fatalf("first sync: %d bootstraps, shipped %d; want one bootstrap to seq 8", f1.Bootstraps(), f1.Shipped())
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := NewFollower(FollowerConfig{LeaderURL: leader.srv.URL, Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Shipped() != 8 {
		t.Fatalf("restarted follower at %d, want the checkpoint's 8", f2.Shipped())
	}
	for r := 8; r < 12; r++ {
		leader.submit(t, r, 32)
	}
	if err := f2.Sync(context.Background()); err != nil {
		t.Fatalf("sync after restart: %v", err)
	}
	promoted, _, err := promote(f2, ingest.Config{Shards: 2})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer promoted.Close()
	if got, want := stateBytes(t, promoted), stateBytes(t, leader.e); string(got) != string(want) {
		t.Fatalf("promoted state diverged from leader (%d bytes, leader %d)", len(got), len(want))
	}
	leader.e.Close()
}

// TestWALStreamTruncationRace: a checkpoint can truncate the leader's
// journal between a follower's status fetch and its stream request —
// or mid-stream. The follower must come through every such race via a
// clean 410 Gone → checkpoint bootstrap, never a torn read: after the
// churn settles, its promoted state must equal the leader's exactly.
func TestWALStreamTruncationRace(t *testing.T) {
	leader := newTestLeader(t)
	// Two checkpointed rounds before the follower exists: its first sync
	// deterministically finds the history truncated and must re-base.
	leader.submit(t, 0, 16)
	leader.submit(t, 1, 16)
	leader.e.Flush()
	if _, err := leader.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f, err := NewFollower(FollowerConfig{
		LeaderURL: leader.srv.URL,
		Dir:       t.TempDir(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Churn: the leader keeps appending and checkpointing (each
	// checkpoint truncates the journal) while the follower syncs
	// concurrently, so syncs land at every point of the truncation
	// window.
	const rounds = 40
	done := make(chan error, 1)
	go func() {
		for r := 2; r < rounds; r++ {
			ops := make([]ingest.Op, 16)
			for i := range ops {
				ops[i] = ingest.EventOp(ingest.Record{
					SwarmID: (r*16 + i) % 37,
					PeerID:  uint64(r + 1),
					Seed:    i%3 != 2,
					Online:  (r+i)%2 == 0,
					Time:    float64(r*100+i) / 50,
				})
			}
			if err := leader.e.Submit(ops); err != nil {
				done <- err
				return
			}
			leader.e.Flush()
			if _, err := leader.e.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	syncs := 0
churn:
	for {
		if err := f.Sync(ctx); err != nil {
			t.Fatalf("sync during checkpoint churn: %v", err)
		}
		syncs++
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("leader churn: %v", err)
			}
			break churn
		default:
		}
	}

	// The leader is quiet now; one more pass must land exactly at its
	// tip, and the churn must have forced at least one bootstrap.
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	if got, want := f.Shipped(), leader.e.WAL().LastSeq(); got != want {
		t.Fatalf("shipped %d after churn, leader at %d", got, want)
	}
	if f.Bootstraps() < 1 {
		t.Fatal("no 410 → checkpoint bootstrap happened; the race was not exercised")
	}
	t.Logf("%d syncs raced %d rounds of truncation, %d bootstraps", syncs, rounds, f.Bootstraps())

	promoted, _, err := promote(f, ingest.Config{Shards: 2})
	if err != nil {
		t.Fatalf("promote after churn: %v", err)
	}
	defer promoted.Close()
	if got, want := stateBytes(t, promoted), stateBytes(t, leader.e); string(got) != string(want) {
		t.Fatalf("torn read: promoted state diverged from leader\n--- promoted ---\n%s\n--- leader ---\n%s", got, want)
	}
	leader.e.Close()
}

func TestWALServerStatus(t *testing.T) {
	leader := newTestLeader(t)
	leader.submit(t, 0, 8)
	leader.submit(t, 1, 8)
	st, err := fetchWALStatus(leader.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.FirstSeq != 1 || st.LastSeq < 2 || st.CheckpointSeq != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
	last := st.LastSeq
	leader.e.Flush()
	if _, err := leader.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err = fetchWALStatus(leader.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != last {
		t.Fatalf("checkpoint seq %d, want %d", st.CheckpointSeq, last)
	}
	// The journal was truncated by the checkpoint: streaming from 1 is
	// now Gone.
	resp, err := http.Get(leader.srv.URL + "/v1/wal/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream from truncated seq: got %d, want 410", resp.StatusCode)
	}
	leader.e.Close()
}

// fetchWALStatus reads a leader's GET /v1/wal/status.
func fetchWALStatus(baseURL string) (WALStatus, error) {
	var st WALStatus
	resp, err := http.Get(baseURL + "/v1/wal/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("wal status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
