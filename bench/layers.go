package main

import "strings"

// layerMetrics fills the per-layer metrics a traced window gives from
// outside the SUT: (A) deltas of the SUT's own /debug/vars series over
// the window, summed over processes, (C) the client-side spans, and the
// /proc CPU split between gateway and nodes.
func (r *windowResult) layerMetrics(out map[string]float64) {
	// delta sums, over processes whose name starts with proc, the growth
	// of every series whose key starts with prefix.
	delta := func(proc, prefix string) (d float64) {
		for name, after := range r.varsAfter {
			if !strings.HasPrefix(name, proc) {
				continue
			}
			for k, v := range after {
				if strings.HasPrefix(k, prefix) {
					d += v - r.varsBefore[name][k]
				}
			}
		}
		return d
	}
	// series counts the distinct series with that prefix, over all
	// processes (shards, WALs).
	series := func(prefix string) (n float64) {
		for _, after := range r.varsAfter {
			for k := range after {
				if strings.HasPrefix(k, prefix) {
					n++
				}
			}
		}
		return n
	}
	wall := r.wall.Seconds()
	krec := float64(r.records) / 1e3

	fsyncS, fsyncs := delta("", "wal_fsync_seconds_sum"), delta("", "wal_fsync_seconds_count")
	out["wal.fsync_ms_mean"] = ratio(fsyncS*1e3, fsyncs)
	out["wal.fsyncs_per_krec"] = ratio(fsyncs, krec)
	out["wal.fsync_busy_ratio"] = ratio(fsyncS, wall*series("wal_fsync_seconds_count"))

	out["ingest.deduped_ratio"] = ratio(delta("", "ingest_deduped_total"), delta("", "ingest_records_total"))
	applyS := delta("", "ingest_batch_apply_seconds_sum")
	out["ingest.apply_us_per_krec"] = ratio(applyS*1e6, delta("", "ingest_applied_total")/1e3)
	out["ingest.apply_busy_ratio"] = ratio(applyS, wall*series("ingest_applied_total"))
	out["ingest.batch_size_mean"] = ratio(delta("", "ingest_batch_size_sum"), delta("", "ingest_batch_size_count"))
	out["ingest.queue_depth_max"] = r.queueDepthMax
	out["ingest.snapshot_age_max_s"] = r.snapshotAgeMaxS
	out["ingest.read_cache_hit_ratio"] = ratio(delta("", "read_cache_hits_total"), delta("", "http_request_seconds_count"))
	out["ingest.stream_frames_per_ack"] = ratio(delta("", "ingest_stream_ack_window_sum"), delta("", "ingest_stream_ack_window_count"))
	out["cluster.revalidated_ratio"] = ratio(delta("node", `http_requests_total{code="3xx"`), delta("node", "http_requests_total"))
	out["obs.gc_pause_ms_per_s"] = ratio(delta("", "process_gc_pause_seconds_total")*1e3, wall)

	var gwCPU, nodeCPU float64
	for name, after := range r.after.cpuS {
		if d := after - r.before.cpuS[name]; name == "gateway" {
			gwCPU += d
		} else {
			nodeCPU += d
		}
	}
	out["cluster.gateway_cpu_s_per_mrec"] = ratio(gwCPU, krec/1e3)
	out["ingest.node_cpu_s_per_mrec"] = ratio(nodeCPU, krec/1e3)

	for _, ep := range queryEndpoints {
		out["query."+ep+"_ms_p50"] = quantile(r.queryMS[ep], 0.5)
	}
	var ackWait []float64
	for _, f := range r.frames {
		ackWait = append(ackWait, ms(f.ackAt.Sub(f.handed)))
	}
	out["client.ack_wait_ms_p50"] = median(ackWait)
	out["client.producer_blocked_ratio"] = ratio(r.blocked.Seconds(), wall)
}
