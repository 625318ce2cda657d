package experiments

import (
	"testing"

	"swarmavail/internal/obs"
)

// TestChaosSustainability is the headline robustness check: a real TCP
// swarm, a seeded fault layer resetting connections mid-stream, and a
// publisher that departs at first completion — every leecher must still
// complete. The first completer stays on as a seed, so this is not the
// seedless §4.2 protocol. The seed is fixed, so the fault decision stream
// is reproducible run to run.
func TestChaosSustainability(t *testing.T) {
	if testing.Short() {
		t.Skip("live-swarm chaos run")
	}
	reg := obs.NewRegistry()
	res, stats, err := chaosRun(Quick, 42, reg)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	// A chaos run that injected nothing proves nothing.
	if stats.Resets == 0 && stats.DialsDenied == 0 {
		t.Fatalf("no faults injected (stats %+v); increase probabilities or traffic", stats)
	}
	// The fleet shares the registry: tracker, peers and fault counters
	// must all have landed on it.
	if v, _ := reg.Value("tracker_announces_total"); v == 0 {
		t.Error("tracker announces not recorded on the shared registry")
	}
	if reg.Sum("peer_announces_total") == 0 {
		t.Error("peer announces not recorded on the shared registry")
	}
	if v, _ := reg.Value("peer_piece_bytes_rx_total"); v == 0 {
		t.Error("piece throughput not recorded on the shared registry")
	}
	if got := reg.Sum("chaos_fault_resets_total") + reg.Sum("chaos_fault_dials_denied_total"); got == 0 {
		t.Error("fault counters not recorded on the shared registry")
	}
	if len(res.Notes) == 0 || len(res.Timelines) == 0 {
		t.Fatalf("chaos result missing notes/timeline: %+v", res)
	}
	for _, note := range res.Notes {
		t.Log(note.Text)
	}
}
