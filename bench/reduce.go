package main

// windowMetrics fills the end-to-end metrics this window gives — plain
// quantiles over every sample of the window — and returns how many of
// its frames never became queryable.
func (r *windowResult) windowMetrics(out map[string]float64, samples map[string]int) (missed int) {
	var ack, fresh, query []float64
	for _, f := range r.frames {
		ack = append(ack, ms(f.ackAt.Sub(f.t0)))
		if f.freshAt.IsZero() {
			missed++
			continue
		}
		fresh = append(fresh, ms(f.freshAt.Sub(f.t0)))
	}
	for _, xs := range r.queryMS {
		query = append(query, xs...)
	}
	for name, xs := range map[string][]float64{"ack": ack, "freshness": fresh, "query": query} {
		out[name+"_p50_ms"] = quantile(xs, 0.5)
		out[name+"_p95_ms"] = quantile(xs, 0.95)
		samples[name+"_ms"] = len(xs)
	}
	out["cpu_s_per_mrec"] = r.cpuPerMrec()
	out["rss_peak_mb"] = r.after.hwmMiB
	out["wal_bytes_per_record"] = ratio(float64(r.after.dirSize-r.before.dirSize), float64(r.records))
	return missed
}

// recordsPerS is the window's throughput: the records covered by acks
// that arrived within the window, over the window's length.
func (r *windowResult) recordsPerS(frameRecords int) float64 {
	end := r.start.Add(r.nominal)
	var acked int
	for _, f := range r.frames {
		if !f.ackAt.After(end) {
			acked += frameRecords
		}
	}
	return float64(acked) / r.nominal.Seconds()
}

// cpuPerMrec is the SUT's CPU seconds over the window per million
// acknowledged records, all processes summed.
func (r *windowResult) cpuPerMrec() float64 {
	var cpu float64
	for name, after := range r.after.cpuS {
		cpu += after - r.before.cpuS[name]
	}
	return ratio(cpu, float64(r.records)/1e6)
}
