package ingest

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// synthStream builds a deterministic event stream over the given swarm
// population, with per-swarm arrival order preserved no matter how the
// stream is later partitioned (partitioning is by swarm, never within
// one).
func synthStream(rng *rand.Rand, swarms, events int) []Record {
	recs := make([]Record, events)
	for i := range recs {
		recs[i] = Record{
			SwarmID: rng.Intn(swarms),
			PeerID:  uint64(rng.Intn(40)),
			Seed:    rng.Intn(3) != 0,
			Online:  rng.Intn(2) == 0,
			Time:    float64(i) / 10,
		}
	}
	return recs
}

func applyAll(t *testing.T, e *Engine, recs []Record) {
	t.Helper()
	ops := make([]Op, len(recs))
	for i, r := range recs {
		ops[i] = EventOp(r)
	}
	if err := e.Submit(ops); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryMergePartitionInvariant is the distributed-reads property:
// split one stream across K engines by swarm (any assignment), merge
// the K summaries back in any order, and the result must marshal to the
// same bytes as the single engine that saw everything. This is exactly
// what availgw does per read, so the property is load-bearing for the
// cluster's byte-identical-answers guarantee.
func TestSummaryMergePartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		const swarms = 61
		recs := synthStream(rng, swarms, 1500+rng.Intn(1500))

		single := New(Config{Shards: 2, BatchSize: 32})
		applyAll(t, single, recs)
		single.Flush()

		// Random assignment of swarms to K partitions — deliberately NOT
		// the production ring, so the property holds for any partitioning
		// that keeps swarms whole, not just the one the gateway happens
		// to use.
		k := 2 + rng.Intn(4)
		home := make([]int, swarms)
		for s := range home {
			home[s] = rng.Intn(k)
		}
		engines := make([]*Engine, k)
		parts := make([][]Record, k)
		for _, r := range recs {
			parts[home[r.SwarmID]] = append(parts[home[r.SwarmID]], r)
		}
		for i := range engines {
			engines[i] = New(Config{Shards: 1 + rng.Intn(3), BatchSize: 16})
			applyAll(t, engines[i], parts[i])
			engines[i].Flush()
		}

		merged := NewSummary()
		for _, i := range rng.Perm(k) {
			merged.Merge(engines[i].Summary())
		}

		want, err := json.Marshal(single.Summary().State())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(merged.State())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d (k=%d): merged summary differs from sequential\n--- merged ---\n%s\n--- single ---\n%s",
				trial, k, got, want)
		}

		single.Close()
		for _, e := range engines {
			e.Close()
		}
	}
}

// TestSummaryStateRoundTripExact: State → JSON → SummaryState → Summary
// → State must be byte-stable; this is the wire format the gateway's
// scatter-gather reads and the follower's promoted engines both trust.
func TestSummaryStateRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := New(Config{Shards: 4, BatchSize: 32})
	defer e.Close()
	applyAll(t, e, synthStream(rng, 97, 4000))
	e.Flush()

	first, err := json.Marshal(e.Summary().State())
	if err != nil {
		t.Fatal(err)
	}
	var st SummaryState
	if err := json.Unmarshal(first, &st); err != nil {
		t.Fatal(err)
	}
	sum, err := st.Summary()
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(sum.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("SummaryState round-trip not exact:\n%s\n%s", first, second)
	}

	// The download counters have one encoding, an integer sum. A record
	// carrying the Welford object they were before that is refused, not
	// reinterpreted.
	legacy := `{"category":2,"swarms":3,"downloads":{"n":3,"mean":4,"m2":2,"min":3,"max":5},` +
		`"bundle_downloads":{"n":0,"mean":0,"m2":0,"min":0,"max":0}}`
	var cr categoryRecord
	if err := json.Unmarshal([]byte(legacy), &cr); err == nil {
		t.Fatalf("a Welford-object download counter decoded to %+v, want an error", cr)
	}
}
