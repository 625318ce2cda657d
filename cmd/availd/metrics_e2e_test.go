package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"swarmavail/internal/ingest"
)

// scrapeMetrics GETs /metrics from base and parses the Prometheus text
// exposition into series-id → value ("name" or `name{k="v",...}`).
func scrapeMetrics(t *testing.T, base net.Addr) map[string]float64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", base))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("scrape: unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape: bad value in %q: %v", line, err)
		}
		series[line[:sp]] = v
	}
	return series
}

// metricFamilies reduces series ids to their distinct metric names
// (labels and histogram suffixes stripped).
func metricFamilies(series map[string]float64) map[string]bool {
	fams := make(map[string]bool)
	for id := range series {
		name := id
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		fams[name] = true
	}
	return fams
}

// TestMetricsScrapeE2E is the end-to-end observability check: boot the
// daemon with an admin listener, push records over the API, scrape
// /metrics on both listeners, and confirm the counters agree with what
// was pushed — including after a graceful drain. It also enforces the
// acceptance floor of ≥ 12 distinct series spanning ingest, HTTP and
// process metrics.
func TestMetricsScrapeE2E(t *testing.T) {
	e := ingest.New(ingest.Config{Shards: 2, QueueDepth: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	adminReady := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, e,
			options{listen: "127.0.0.1:0", admin: "127.0.0.1:0", pprof: true},
			ready, adminReady)
	}()
	var addr, adminAddr net.Addr
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatalf("serve exited early: %v", err)
	}
	adminAddr = <-adminReady

	push := func(swarmBase, n int) {
		t.Helper()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < n; i++ {
			rec := ingest.Record{SwarmID: swarmBase + i, PeerID: 1, Seed: true, Online: true}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(fmt.Sprintf("http://%s/v1/ingest", addr), "application/json", &buf)
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: status %d", resp.StatusCode)
		}
	}

	const first = 40
	push(1000, first)
	e.Flush() // all acked records applied before the scrape

	series := scrapeMetrics(t, adminAddr)
	if got := series["ingest_records_total"]; got != first {
		t.Errorf("ingest_records_total = %v, want %d", got, first)
	}
	var applied float64
	for id, v := range series {
		if strings.HasPrefix(id, "ingest_applied_total{") {
			applied += v
		}
	}
	if applied != first {
		t.Errorf("sum of per-shard ingest_applied_total = %v, want %d", applied, first)
	}
	if got := series["availd_swarms"]; got != first {
		t.Errorf("availd_swarms = %v, want %d", got, first)
	}

	// Read-path series: two lock-free summary reads of a quiet engine —
	// the second serves the memoized merge and counts a cache hit. The
	// flush above published every shard snapshot, so the staleness gauge
	// reads 0 and the window rings hold the pushed events' bins.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/summary", addr))
		if err != nil {
			t.Fatalf("summary read %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	series = scrapeMetrics(t, adminAddr)
	if got, ok := series["read_cache_hits_total"]; !ok || got < 1 {
		t.Errorf("read_cache_hits_total = %v ok=%v, want ≥ 1 after repeated snapshot reads", got, ok)
	}
	if got, ok := series["ingest_snapshot_age_seconds"]; !ok || got != 0 {
		t.Errorf("ingest_snapshot_age_seconds = %v ok=%v, want 0 right after a flush", got, ok)
	}
	if got, ok := series["ingest_window_bins"]; !ok || got < 1 {
		t.Errorf("ingest_window_bins = %v ok=%v, want ≥ 1 once events landed in the rings", got, ok)
	}

	// Acceptance: ≥ 12 distinct series spanning ingest, HTTP and
	// process metrics on one scrape.
	fams := metricFamilies(series)
	if len(fams) < 12 {
		t.Errorf("only %d distinct metric families exposed, want ≥ 12: %v", len(fams), fams)
	}
	for _, prefix := range []string{"ingest_", "http_", "process_", "availd_"} {
		found := false
		for name := range fams {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* family in scrape", prefix)
		}
	}

	// The API listener exposes the same registry, and its own traffic
	// shows up in the HTTP series.
	apiSeries := scrapeMetrics(t, addr)
	if apiSeries["ingest_records_total"] != first {
		t.Errorf("API /metrics diverges from admin scrape: %v", apiSeries["ingest_records_total"])
	}
	// The scrape in flight counts itself only once it completes, so at
	// this point the series holds the push request.
	if v := apiSeries[`http_requests_total{code="2xx",handler="api"}`]; v < 1 {
		t.Errorf("http_requests_total{2xx,api} = %v, want ≥ 1 (the push)", v)
	}

	// /debug/vars serves the same series as flat JSON.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", adminAddr))
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("vars decode: %v", err)
	}
	resp.Body.Close()
	if vars["ingest_records_total"] != first {
		t.Errorf("vars ingest_records_total = %v, want %d", vars["ingest_records_total"], first)
	}

	// pprof rides on the admin listener when enabled.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", adminAddr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d, want 200", resp.StatusCode)
	}

	// Keyed pushes: the same (source, seq) batch twice. The duplicate is
	// acked but never re-applied, and the dedup + epoch series expose the
	// split-brain-safety surface on every scrape.
	const keyed = 15
	pushKeyed := func() {
		t.Helper()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < keyed; i++ {
			rec := ingest.Record{SwarmID: 3000 + i, PeerID: 1, Seed: true, Online: true}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(http.MethodPost,
			fmt.Sprintf("http://%s/v1/ingest", addr), &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ingest.HeaderSource, "metrics-e2e")
		req.Header.Set(ingest.HeaderSeq, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("keyed push: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keyed push: status %d", resp.StatusCode)
		}
	}
	pushKeyed() // applies
	pushKeyed() // duplicate: acked, deduplicated
	e.Flush()
	series = scrapeMetrics(t, adminAddr)
	if got := series["ingest_records_total"]; got != first+keyed {
		t.Errorf("ingest_records_total after duplicate = %v, want %d (the dedup must not count records)", got, first+keyed)
	}
	if got := series["ingest_deduped_total"]; got != keyed {
		t.Errorf("ingest_deduped_total = %v, want %d", got, keyed)
	}
	if got := series["cluster_epoch"]; got != 1 {
		t.Errorf("cluster_epoch = %v, want 1 (never promoted, never fenced)", got)
	}
	if got, ok := series["cluster_fenced_requests_total"]; !ok || got != 0 {
		t.Errorf("cluster_fenced_requests_total = %v ok=%v, want 0 on a healthy node", got, ok)
	}

	// Push a second wave, then trigger the graceful drain; every acked
	// record must be counted in the final registry state.
	const second = 25
	push(2000, second)
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}
	reg := e.Registry()
	if v, _ := reg.Value("ingest_records_total"); v != first+keyed+second {
		t.Errorf("post-drain ingest_records_total = %v, want %d", v, first+keyed+second)
	}
	if got := reg.Sum("ingest_applied_total"); got != first+keyed+second {
		t.Errorf("post-drain applied = %v, want %d", got, first+keyed+second)
	}
	if m := e.Metrics(); m.Applied != first+keyed+second || m.Deduped != keyed {
		t.Errorf("post-drain snapshot applied=%d deduped=%d, want %d/%d", m.Applied, m.Deduped, first+keyed+second, keyed)
	}
}
