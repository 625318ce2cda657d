package ingest

import (
	"hash/fnv"
	"sort"
)

// This file maps live monitor probes onto the trace schema: a bt mon
// fleet observes swarm membership round by round, but the engine
// ingests online/offline *transitions*. ProbeDiff is the stateful
// differ that turns consecutive membership snapshots into exactly the
// Records the offline trace analysis would have contained.

// PeerObservation is one peer as a probe round saw it.
type PeerObservation struct {
	// Key identifies the peer across rounds (use ObservationKey on a
	// stable address).
	Key uint64
	// Seed reports whether the peer advertised a complete bitfield.
	Seed bool
}

// ObservationKey derives a stable peer id from an observed address
// (FNV-1a, the same cheap non-cryptographic choice the shard hash
// uses). Monitors across a fleet hashing the same address agree on the
// id without coordination.
func ObservationKey(addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return h.Sum64()
}

// ProbeDiff diffs successive probe rounds of one swarm into event ops.
// Not safe for concurrent use; each monitor owns one.
type ProbeDiff struct {
	swarmID int
	last    map[uint64]bool // peers seen last round → seed flag
}

// NewProbeDiff creates a differ for one swarm, starting from an empty
// membership (every peer in the first round appears as an arrival).
func NewProbeDiff(swarmID int) *ProbeDiff {
	return &ProbeDiff{swarmID: swarmID, last: make(map[uint64]bool)}
}

// Ops diffs one probe round against the previous one and returns the
// transitions: a new peer comes online, a vanished peer goes offline,
// and a peer whose seed flag flipped (leecher completed the download)
// goes offline as its old role and online as its new one — matching how
// the trace schema models role changes. tDays is the observation time
// in days since swarm creation. Output order is deterministic
// (arrivals/flips in obs order after dedup, departures sorted by key).
func (d *ProbeDiff) Ops(tDays float64, obs []PeerObservation) []Op {
	cur := make(map[uint64]bool, len(obs))
	var ops []Op
	for _, o := range obs {
		if _, dup := cur[o.Key]; dup {
			continue // same peer observed twice in one round
		}
		cur[o.Key] = o.Seed
		prev, seen := d.last[o.Key]
		switch {
		case !seen:
			ops = append(ops, EventOp(Record{
				SwarmID: d.swarmID, PeerID: o.Key, Seed: o.Seed, Online: true, Time: tDays,
			}))
		case prev != o.Seed:
			ops = append(ops,
				EventOp(Record{SwarmID: d.swarmID, PeerID: o.Key, Seed: prev, Online: false, Time: tDays}),
				EventOp(Record{SwarmID: d.swarmID, PeerID: o.Key, Seed: o.Seed, Online: true, Time: tDays}),
			)
		}
	}
	departed := make([]uint64, 0)
	for key := range d.last {
		if _, still := cur[key]; !still {
			departed = append(departed, key)
		}
	}
	sort.Slice(departed, func(i, j int) bool { return departed[i] < departed[j] })
	for _, key := range departed {
		ops = append(ops, EventOp(Record{
			SwarmID: d.swarmID, PeerID: key, Seed: d.last[key], Online: false, Time: tDays,
		}))
	}
	d.last = cur
	return ops
}

// Close emits the final departures: every peer still online goes
// offline at tDays, so the swarm's availability interval is closed when
// monitoring stops. The differ is reset and reusable.
func (d *ProbeDiff) Close(tDays float64) []Op {
	return d.Ops(tDays, nil)
}
