package cluster

import (
	"context"
	"testing"

	"swarmavail/internal/ingest"
)

// TestStreamDedupSurvivesPromotion is the cross-failover half of the
// stream exactly-once property: keyed wire frames applied on the
// leader, shipped via the WAL, must be recognised as duplicates by the
// promoted follower — a monitor whose stream reconnects to the new
// leader and resends its unacked window re-applies nothing.
func TestStreamDedupSurvivesPromotion(t *testing.T) {
	leader := newTestLeader(t)

	var frames [][]byte
	for seq := uint64(1); seq <= 6; seq++ {
		ops := []ingest.Op{
			ingest.EventOp(ingest.Record{SwarmID: int(seq) % 5, PeerID: seq, Seed: true, Online: true, Time: float64(seq) / 3}),
			ingest.EventOp(ingest.Record{SwarmID: int(seq) % 7, PeerID: seq + 100, Online: true, Time: float64(seq)}),
		}
		frame, err := ingest.EncodeFrame(nil, "mon-promote", seq, ops)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		applied, err := leader.e.SubmitFrame(frame)
		if err != nil || !applied {
			t.Fatalf("leader SubmitFrame seq %d: applied=%v err=%v", seq, applied, err)
		}
	}
	// The leader's own replay check: same frames again, all absorbed.
	for i, frame := range frames {
		applied, err := leader.e.SubmitFrame(frame)
		if err != nil || applied {
			t.Fatalf("leader replay %d: applied=%v err=%v", i, applied, err)
		}
	}
	leaderState := stateBytes(t, leader.e)

	f, err := NewFollower(FollowerConfig{LeaderURL: leader.srv.URL, Dir: t.TempDir(), Logf: t.Logf})
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
	defer promoted.Close()

	if got := stateBytes(t, promoted); string(got) != string(leaderState) {
		t.Fatalf("promoted state diverged from leader\n--- promoted ---\n%s\n--- leader ---\n%s", got, leaderState)
	}

	// The reconnect-after-failover resend: every frame again, against
	// the promoted engine. Nothing may re-apply, and every duplicate op
	// must land in ingest_deduped_total.
	baseRecords, baseDeduped := series(promoted, "ingest_records_total"), series(promoted, "ingest_deduped_total")
	var dupOps uint64
	for i, frame := range frames {
		applied, err := promoted.SubmitFrame(frame)
		if err != nil {
			t.Fatalf("promoted SubmitFrame %d: %v", i, err)
		}
		if applied {
			t.Fatalf("promoted engine re-applied frame %d after failover", i)
		}
		dupOps += 2
	}
	if records := series(promoted, "ingest_records_total"); records != baseRecords {
		t.Fatalf("records moved %d -> %d across replay", baseRecords, records)
	}
	if deduped, want := series(promoted, "ingest_deduped_total"), baseDeduped+dupOps; deduped != want {
		t.Fatalf("deduped %d, want %d", deduped, want)
	}
	if got := stateBytes(t, promoted); string(got) != string(leaderState) {
		t.Fatal("state changed across a fully deduplicated replay")
	}
	leader.e.Close()
}
