package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// Probe sizes: enough calls for a steady median or mean, few enough
// that a traced 66 000-swarm run stays well inside its time cap.
const (
	probeCalls        = 200     // timed calls behind each p50
	probeCodecFrames  = 2000    // frames per encode/decode/replay pass
	probePublishes    = 15      // Observe+Flush cycles on the loaded engine
	probeRenders      = 20      // renders per endpoint
	probeReplayFrames = 1000    // WAL tail replayed by the recovery probe
	probeLookups      = 1 << 20 // ring lookups and sketch adds
)

// probeLayers measures each layer's public entry points in process, on
// an engine loaded with the workload's preload, with a span around
// every call. It runs after the real run, so it may advance the
// generator's tail freely.
func probeLayers(prof *Profile, gen *generator, tr *tracer, out map[string]float64) (notes []string, err error) {
	dir, err := os.MkdirTemp("", "availbench-probe-")
	if err != nil {
		return notes, err
	}
	defer os.RemoveAll(dir)
	root := tr.add("probe", "", 0, time.Now(), time.Now())
	defer func() { tr.finish(root, time.Now()) }()
	w := prof.Groups.Writers

	// One frame's worth of ops, and its keyed wire form.
	frameOps := func() []ingest.Op {
		ops := make([]ingest.Op, w.FrameRecords)
		for i := range ops {
			ops[i] = ingest.EventOp(gen.next())
		}
		return ops
	}
	ops := frameOps()
	perRec := func(d time.Duration, frames int) float64 {
		return float64(d.Nanoseconds()) / float64(frames*w.FrameRecords)
	}
	// each times n calls of fn, one span per call, and returns the
	// per-call durations in the unit given.
	each := func(name string, n int, unit time.Duration, fn func(i int) error) ([]float64, error) {
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			var err error
			d := tr.timed(name, root, func() { err = fn(i) })
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(d)/float64(unit))
		}
		return xs, nil
	}

	// ingest codec.
	var frame []byte
	d := tr.timed("ingest.EncodeFrame", root, func() {
		for i := 0; i < probeCodecFrames; i++ {
			frame, err = ingest.EncodeFrame(frame[:0], "probe", uint64(i+1), ops)
		}
	})
	if err != nil {
		return notes, err
	}
	out["ingest.encode_ns_per_rec"] = perRec(d, probeCodecFrames)
	d = tr.timed("ingest.DecodeFrame", root, func() {
		for i := 0; i < probeCodecFrames && err == nil; i++ {
			_, _, _, err = ingest.DecodeFrame(frame)
		}
	})
	if err != nil {
		return notes, err
	}
	out["ingest.decode_ns_per_rec"] = perRec(d, probeCodecFrames)

	// wal: durable appends one by one, then a replay of a long log.
	log, _, err := wal.Open(filepath.Join(dir, "wal-sync"), wal.Options{Policy: wal.SyncEachAppend})
	if err != nil {
		return notes, err
	}
	xs, err := each("wal.Log.Append", probeCalls, time.Microsecond, func(int) error {
		_, err := log.Append(frame)
		return err
	})
	log.Close()
	if err != nil {
		return notes, err
	}
	out["wal.append_us_p50"] = median(xs)
	if log, _, err = wal.Open(filepath.Join(dir, "wal-replay"), wal.Options{Policy: wal.SyncNone}); err != nil {
		return notes, err
	}
	for i := 0; i < probeCodecFrames && err == nil; i++ {
		_, err = log.Append(frame)
	}
	if err != nil {
		log.Close()
		return notes, err
	}
	d = tr.timed("wal.Log.Replay", root, func() {
		err = log.Replay(1, func(uint64, []byte) error { return nil })
	})
	log.Close()
	if err != nil {
		return notes, err
	}
	out["wal.replay_mrec_per_s"] = float64(probeCodecFrames*w.FrameRecords) / 1e6 / d.Seconds()

	// The loaded engine: durable, fsync off while loading.
	engDir := filepath.Join(dir, "engine")
	open := func(policy wal.SyncPolicy) (*ingest.Engine, ingest.RecoveryStats, time.Duration, error) {
		var (
			e  *ingest.Engine
			rs ingest.RecoveryStats
		)
		d := tr.timed("ingest.OpenDurable", root, func() {
			e, rs, err = ingest.OpenDurable(ingest.Config{}, ingest.DurabilityConfig{Dir: engDir, Fsync: policy})
		})
		return e, rs, d, err
	}
	// Two collections each time: the first frees what the run left
	// behind, the second what finalizers released.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, _, _, err := open(wal.SyncNone)
	if err != nil {
		return notes, err
	}
	defer func() { e.Close() }()
	wr := e.NewWriter()
	if err := gen.preload(wr.Put); err != nil {
		return notes, err
	}
	if err := wr.Flush(); err != nil {
		return notes, err
	}
	e.Flush()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	out["ingest.heap_bytes_per_swarm"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(prof.Swarms)

	// ingest snapshot: a flush publishes the dirty shard's snapshot; the
	// next Snapshot merges, the one after hits the memoized merge.
	var publish, merge, hit []float64
	for i := 0; i < probePublishes; i++ {
		rec := gen.next()
		publish = append(publish, ms(tr.timed("ingest.Observe+Flush", root, func() {
			err = e.Observe(rec)
			e.Flush()
		})))
		if err != nil {
			return notes, err
		}
		merge = append(merge, float64(tr.timed("ingest.Snapshot.merge", root, func() { e.Snapshot() }).Microseconds()))
		hit = append(hit, float64(tr.timed("ingest.Snapshot.hit", root, func() { e.Snapshot() }).Nanoseconds()))
	}
	out["ingest.publish_ms"] = median(publish)
	out["ingest.snapshot_merge_us"] = median(merge)
	out["ingest.snapshot_hit_ns"] = median(hit)

	sk := stats.NewAvailabilitySketch()
	rng := rand.New(rand.NewSource(1))
	d = tr.timed("stats.QuantileSketch.Add", root, func() {
		for i := 0; i < probeLookups; i++ {
			sk.Add(rng.Float64())
		}
	})
	out["stats.sketch_add_ns"] = float64(d.Nanoseconds()) / probeLookups

	// ingest render.
	snap := e.Snapshot()
	for name, render := range map[string]func(*bodyWriter){
		"summary": func(bw *bodyWriter) { ingest.WriteSummary(bw, snap.Summary) },
		"cdf":     func(bw *bodyWriter) { ingest.WriteCDF(bw, snap.Summary, ingest.DefaultCDFQuantiles) },
		"window":  func(bw *bodyWriter) { ingest.WriteWindow(bw, snap.Window, 7) },
	} {
		xs, _ := each("ingest.Write."+name, probeRenders, time.Microsecond, func(int) error {
			render(&bodyWriter{})
			return nil
		})
		out["ingest.render_"+name+"_us"] = median(xs)
	}

	// ingest durable: checkpoint, recovery from it, recovery plus a WAL
	// tail.
	var cs ingest.CheckpointStats
	d = tr.timed("ingest.Checkpoint", root, func() { cs, err = e.Checkpoint() })
	if err != nil {
		return notes, err
	}
	out["ingest.checkpoint_s"] = d.Seconds()
	out["ingest.checkpoint_bytes_per_swarm"] = ratio(float64(cs.Bytes), float64(cs.Swarms))
	e.Close()
	var fromCkpt time.Duration
	var rs ingest.RecoveryStats
	if e, rs, fromCkpt, err = open(wal.SyncNone); err != nil {
		return notes, err
	}
	out["ingest.recover_checkpoint_s"] = fromCkpt.Seconds()
	if rs.CheckpointSwarms != cs.Swarms {
		// The number above then times a load that did not happen, and the
		// state the checkpoint held is gone with the WAL it truncated.
		notes = append(notes, fmt.Sprintf("flag: probe checkpoint of %d swarms (%d bytes) restored %d swarms on reopen; ingest.recover_* below are of an engine without that state",
			cs.Swarms, cs.Bytes, rs.CheckpointSwarms))
	}
	for i := 0; i < probeReplayFrames; i++ {
		if err := e.Submit(frameOps()); err != nil {
			return notes, err
		}
	}
	e.Close()
	var withTail time.Duration
	if e, rs, withTail, err = open(wal.SyncEachAppend); err != nil {
		return notes, err
	}
	out["ingest.recover_replay_mrec_per_s"] = ratio(float64(rs.ReplayedOps)/1e6, (withTail - fromCkpt).Seconds())

	// ingest dedup/journal: keyed submits, each journaled and fsynced.
	xs, err = each("ingest.SubmitFrame", probeCalls, time.Microsecond, func(i int) error {
		f, err := ingest.EncodeFrame(nil, "probe-frame", uint64(i+1), ops)
		if err != nil {
			return err
		}
		_, err = e.SubmitFrame(f)
		return err
	})
	if err != nil {
		return notes, err
	}
	out["ingest.submit_frame_us_p50"] = median(xs)
	xs, err = each("ingest.SubmitKeyed", probeCalls, time.Microsecond, func(i int) error {
		_, err := e.SubmitKeyed("probe-keyed", uint64(i+1), ops)
		return err
	})
	if err != nil {
		return notes, err
	}
	out["ingest.submit_keyed_us_p50"] = median(xs)

	// trace: the JSONL scanners on one ingest body.
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	const scanFrames = 100
	for i := 0; i < scanFrames*w.FrameRecords; i++ {
		if err := enc.Encode(gen.next()); err != nil {
			return notes, err
		}
	}
	scan := func(src trace.Source[ingest.Record]) error {
		for src.Scan() {
		}
		return src.Err()
	}
	d = tr.timed("trace.Scanner", root, func() {
		err = scan(trace.NewScanner[ingest.Record](bytes.NewReader(body.Bytes())))
	})
	if err != nil {
		return notes, err
	}
	out["trace.scan_ns_per_rec"] = perRec(d, scanFrames)
	d = tr.timed("trace.ParallelScanner", root, func() {
		ps := trace.NewParallelScanner[ingest.Record](bytes.NewReader(body.Bytes()), 0)
		defer ps.Close()
		err = scan(ps)
	})
	if err != nil {
		return notes, err
	}
	out["trace.parallel_scan_ns_per_rec"] = perRec(d, scanFrames)

	// cluster ring.
	ring, err := cluster.NewRing(max(prof.Stack.Nodes, 2), 0)
	if err != nil {
		return notes, err
	}
	var sink int
	d = tr.timed("cluster.Ring.Node", root, func() {
		for i := 0; i < probeLookups; i++ {
			sink += ring.Node(i % prof.Swarms)
		}
	})
	_ = sink
	out["cluster.ring_ns_per_lookup"] = float64(d.Nanoseconds()) / probeLookups
	return notes, nil
}
