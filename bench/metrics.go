package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// measured are the metrics a user of the pipeline sees, computed by
// every workload from untraced windows. The README's glossary defines
// each. A metric with a bound is gated: it is in BENCHMARK.json's
// end_to_end list and a later change may not worsen it by more than the
// bound. The bounds are the issue's: 0.10, and 0.02 for the WAL's bytes
// per record; setup_s alone has the driver's 0.25, because the driver
// wants it gated with the largest bound. A metric without a bound failed
// the repeatability rule on some workload (two sets of runs did not
// agree within 0.10; README, "Repeatability"), so it is reported by the
// traced run as the per-layer metric e2e.<name>, ungated, and a claim
// about it rests on paired runs.
var measured = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_records_per_s", "records/s", "higher", 0},
	{"ack_p50_ms", "ms", "lower", 0},
	{"ack_p95_ms", "ms", "lower", 0},
	{"freshness_p50_ms", "ms", "lower", 0},
	{"freshness_p95_ms", "ms", "lower", 0},
	{"query_p50_ms", "ms", "lower", 0},
	{"query_p95_ms", "ms", "lower", 0},
	{"cpu_s_per_mrec", "CPU-s/Mrec", "lower", 0},
	{"rss_peak_mb", "MiB", "lower", 0.10},
	{"wal_bytes_per_record", "bytes", "lower", 0.02},
	{"checkpoint_s", "s", "lower", 0},
	{"recovery_s", "s", "lower", 0},
}

// layers are single-layer metrics from the traced run, ungated. The
// source of each — (A) /metrics deltas, (B) in-process probe, (C)
// client spans — is in the README's interaction table.
var layers = []metricDef{
	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.replay_mrec_per_s", "Mrec/s", "higher", 0},
	{"wal.fsync_ms_mean", "ms", "lower", 0},
	{"wal.fsyncs_per_krec", "1/krec", "lower", 0},
	{"wal.fsync_busy_ratio", "ratio", "lower", 0},
	{"ingest.encode_ns_per_rec", "ns", "lower", 0},
	{"ingest.decode_ns_per_rec", "ns", "lower", 0},
	{"ingest.submit_frame_us_p50", "us", "lower", 0},
	{"ingest.submit_keyed_us_p50", "us", "lower", 0},
	{"ingest.deduped_ratio", "ratio", "lower", 0},
	{"ingest.apply_us_per_krec", "us/krec", "lower", 0},
	{"ingest.apply_busy_ratio", "ratio", "lower", 0},
	{"ingest.batch_size_mean", "records", "higher", 0},
	{"ingest.queue_depth_max", "batches", "lower", 0},
	{"ingest.publish_ms", "ms", "lower", 0},
	{"ingest.snapshot_merge_us", "us", "lower", 0},
	{"ingest.snapshot_hit_ns", "ns", "lower", 0},
	{"ingest.snapshot_age_max_s", "s", "lower", 0},
	{"ingest.read_cache_hit_ratio", "ratio", "higher", 0},
	{"stats.sketch_add_ns", "ns", "lower", 0},
	{"ingest.render_summary_us", "us", "lower", 0},
	{"ingest.render_cdf_us", "us", "lower", 0},
	{"ingest.render_window_us", "us", "lower", 0},
	{"query.summary_ms_p50", "ms", "lower", 0},
	{"query.cdf_ms_p50", "ms", "lower", 0},
	{"query.window_ms_p50", "ms", "lower", 0},
	{"query.swarm_ms_p50", "ms", "lower", 0},
	{"ingest.checkpoint_s", "s", "lower", 0},
	{"ingest.checkpoint_bytes_per_swarm", "bytes", "lower", 0},
	{"ingest.recover_checkpoint_s", "s", "lower", 0},
	{"ingest.recover_replay_mrec_per_s", "Mrec/s", "higher", 0},
	{"ingest.heap_bytes_per_swarm", "bytes", "lower", 0},
	{"ingest.stream_frames_per_ack", "frames", "higher", 0},
	{"client.producer_blocked_ratio", "ratio", "lower", 0},
	{"client.ack_wait_ms_p50", "ms", "lower", 0},
	{"trace.scan_ns_per_rec", "ns", "lower", 0},
	{"trace.parallel_scan_ns_per_rec", "ns", "lower", 0},
	{"cluster.ring_ns_per_lookup", "ns", "lower", 0},
	{"cluster.gateway_cpu_s_per_mrec", "CPU-s/Mrec", "lower", 0},
	{"ingest.node_cpu_s_per_mrec", "CPU-s/Mrec", "lower", 0},
	{"cluster.revalidated_ratio", "ratio", "higher", 0},
	{"obs.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"bench.sched_lag_p95_ms", "ms", "lower", 0},
	{"bench.gen_cpu_ratio", "ratio", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"e2e.failed_ops_ratio", "ratio", "lower", 0},
}

// endToEnd is the gated part of measured — BENCHMARK.json's end_to_end —
// and perLayer is layers followed by the ungated rest as e2e.<name> —
// BENCHMARK.json's per_layer.
var endToEnd, perLayer = func() (gated, ungated []metricDef) {
	ungated = append(ungated, layers...)
	for _, d := range measured {
		if d.Bound > 0 {
			gated = append(gated, d)
		} else {
			ungated = append(ungated, metricDef{"e2e." + d.Name, d.Unit, d.Better, 0})
		}
	}
	return gated, ungated
}()

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median averages the middle two of an even count, as Python's
// statistics.median (the driver's) does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint identifies the machine and build behind a report; numbers
// from different fingerprints do not compare.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFingerprint(root string) fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A driver's checkout is not a git repository; the commit is then
	// whatever the driver says it checked out.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}
