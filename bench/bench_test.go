package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"swarmavail/internal/ingest"
)

// smallProfile shrinks a profile to smoke size: 200 swarms, one SIGTERM
// and one SIGKILL with ten-frame tails.
func smallProfile(p *Profile) {
	p.Swarms = 200
	p.Crash = CrashSpec{Signals: []string{"term", "kill"}, TailRecords: 10 * p.Groups.Writers.FrameRecords}
}

func mustProfiles(t *testing.T) map[string]*Profile {
	t.Helper()
	ps, err := loadProfiles()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func small(t *testing.T, name string) *Profile {
	t.Helper()
	p := *mustProfiles(t)[name]
	smallProfile(&p)
	return &p
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the profile files and
// the metric tables in step: same workload names, same metrics with the
// same unit, direction and bound, and paths = bench.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	profiles := mustProfiles(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if p := profiles[w.Name]; p != nil && p.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the profile give different whys", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, profileNames(profiles)) {
		t.Errorf("BENCHMARK.json workloads %v, profiles %v", names, profileNames(profiles))
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound differs from the table's %v", kind, w.Name, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, w.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// walk feeds fn the preload's event records and then n tail records.
func walk(t *testing.T, g *generator, n int, fn func(rec ingest.Record, tail bool)) {
	t.Helper()
	err := g.preload(func(op ingest.Op) error {
		if rec, ok := op.EventRecord(); ok {
			fn(rec, false)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g.restartTail()
	for i := 0; i < n; i++ {
		fn(g.next(), true)
	}
}

// streamHash digests the wire form of the preload followed by the first
// tailRecords tail records, framed as the writer frames them. It rewinds
// the tail first and leaves it advanced.
func (g *generator) streamHash(tailRecords int) (string, error) {
	h := sha256.New()
	ops := make([]ingest.Op, 0, g.w.FrameRecords)
	var buf []byte
	flush := func() error {
		var err error
		if buf, err = ingest.EncodeFrame(buf[:0], "", 0, ops); err != nil {
			return err
		}
		h.Write(buf)
		ops = ops[:0]
		return nil
	}
	put := func(op ingest.Op) error {
		if ops = append(ops, op); len(ops) == cap(ops) {
			return flush()
		}
		return nil
	}
	if err := g.preload(put); err != nil {
		return "", err
	}
	g.restartTail()
	for i := 0; i < tailRecords; i++ {
		if err := put(ingest.EventOp(g.next())); err != nil {
			return "", err
		}
	}
	if err := flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestGeneratorDeterministic: the same seed gives a byte-identical op
// stream and another seed a different one; per (swarm, peer) on and off
// alternate and time strictly increases; the tail's time strictly
// increases overall and starts after the preload.
func TestGeneratorDeterministic(t *testing.T) {
	for _, name := range []string{"steady-66k", "crash-recover-66k"} { // zipf and uniform skew
		p := small(t, name)
		const tail = 20000
		hash := func(seed int64) string {
			h, err := newGenerator(p, seed).streamHash(tail)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave two op streams (%s, %s)", name, a, b)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", name)
		}

		type peer struct {
			swarm int
			id    uint64
		}
		type state struct {
			online bool
			last   float64
		}
		peers := map[peer]*state{}
		var lastTail, preloadEnd float64
		walk(t, newGenerator(p, 1), tail, func(rec ingest.Record, isTail bool) {
			st := peers[peer{rec.SwarmID, rec.PeerID}]
			if st == nil {
				st = &state{last: -1}
				peers[peer{rec.SwarmID, rec.PeerID}] = st
			}
			if rec.Online == st.online {
				t.Fatalf("%s: swarm %d peer %d: two %v events in a row", name, rec.SwarmID, rec.PeerID, rec.Online)
			}
			if rec.Time <= st.last {
				t.Fatalf("%s: swarm %d peer %d: time %v after %v", name, rec.SwarmID, rec.PeerID, rec.Time, st.last)
			}
			st.online, st.last = rec.Online, rec.Time
			if !isTail {
				preloadEnd = max(preloadEnd, rec.Time)
				return
			}
			if rec.Time <= lastTail || rec.Time <= preloadEnd {
				t.Fatalf("%s: tail time %v does not increase (previous %v, preload ends %v)", name, rec.Time, lastTail, preloadEnd)
			}
			lastTail = rec.Time
		})
	}
}

// TestGateCatchesLossAndDuplicate withholds one frame from a stand-in
// SUT and applies another twice. The counts cancel, the state does not:
// the gate must fail and the run must report failure with a non-zero
// failed_ops_ratio. The intact stream passes.
func TestGateCatchesLossAndDuplicate(t *testing.T) {
	p := small(t, "gateway-bin-2k")
	g := newGenerator(p, 3)
	const frames = 8
	per := p.Groups.Writers.FrameRecords
	reference, err := referenceState(g, uint64(frames*per))
	if err != nil {
		t.Fatal(err)
	}
	acked := g.preloadEvents() + frames*uint64(per)

	serve := func(withhold, duplicate int) []byte {
		e := ingest.New(ingest.Config{Shards: 2})
		defer e.Close()
		w := e.NewWriter()
		if err := g.preload(w.Put); err != nil {
			t.Fatal(err)
		}
		g.restartTail()
		for f := 0; f < frames; f++ {
			recs := make([]ingest.Record, per)
			g.fill(recs)
			times := 1
			switch f {
			case withhold:
				times = 0
			case duplicate:
				times = 2
			}
			for ; times > 0; times-- {
				for _, r := range recs {
					if err := w.Observe(r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/state" || r.URL.Query().Get("consistent") != "1" {
				http.NotFound(rw, r)
				return
			}
			ingest.WriteState(rw, e.Summary())
		}))
		defer srv.Close()
		body, err := consistentState(context.Background(), srv.Client(), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	gate, err := checkGate(serve(-1, -1), acked, reference)
	if err != nil || !gate.ok() || !gate.stateEqual {
		t.Fatalf("intact stream: gate %v, err %v", gate, err)
	}
	rep := &report{}
	rep.conclude(100, 0, gate)
	if !rep.Correct || rep.FailedOpsRatio != 0 {
		t.Errorf("intact stream: report %+v", rep)
	}

	gate, err = checkGate(serve(2, 5), acked, reference)
	if err != nil {
		t.Fatal(err)
	}
	if gate.ok() || gate.stateEqual || gate.failed == 0 {
		t.Errorf("one frame withheld and one duplicated: the gate passed: %v", gate)
	}
	rep = &report{}
	rep.conclude(100, 0, gate)
	if rep.Correct || rep.Failed == 0 || rep.FailedOpsRatio <= 0 {
		t.Errorf("one frame withheld and one duplicated: report %+v", rep)
	}

	gate, _ = checkGate(serve(4, -1), acked, reference)
	if gate.failed != uint64(per) {
		t.Errorf("one frame withheld: failed = %d, want %d", gate.failed, per)
	}
}

func smokeOptions(t *testing.T, trace bool) options {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return options{root: root, seed: 5, seconds: 1, trace: trace, scale: smallProfile}
}

// leftovers lists what the benchmark left in the temp dir.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "availbench-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestSmoke runs all four workloads at 200 swarms with 1 s of windows,
// in under 15 s, so the tier-1 suite catches harness rot: every run
// correct, every end-to-end metric present and non-zero, the names a
// run prints the same set as the profiles, nothing left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	opt := smokeOptions(t, false)
	profiles := mustProfiles(t)
	start := time.Now()
	var ran []string
	for _, name := range profileNames(profiles) {
		rep, err := runWorkload(context.Background(), profiles[name], opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ran = append(ran, rep.Workload)
		if !rep.Correct || rep.Failed != 0 || rep.FailedOpsRatio != 0 {
			t.Errorf("%s: incorrect: %d of %d failed; notes %v", name, rep.Failed, rep.Attempted, rep.Notes)
		}
		for _, d := range measured {
			if v, ok := rep.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, d.Name, v)
			}
		}
		if len(rep.EndToEnd) != len(measured) {
			t.Errorf("%s: reported %d end-to-end metrics, the table has %d", name, len(rep.EndToEnd), len(measured))
		}
	}
	if !reflect.DeepEqual(ran, profileNames(profiles)) {
		t.Errorf("ran %v, profiles %v", ran, profileNames(profiles))
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("smoke took %v, want under 15s", took)
	}
	if left := leftovers(t, tmp); len(left) != 0 {
		t.Errorf("left behind %v", left)
	}
}

// TestSmokeTraced runs one traced workload: every per-layer metric is
// reported, the spans have parents and request ids, and the report and
// span files are written.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	t.Setenv("TMPDIR", t.TempDir())
	rep, err := runWorkload(context.Background(), mustProfiles(t)["gateway-bin-2k"], smokeOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("incorrect: notes %v", rep.Notes)
	}
	for _, d := range perLayer {
		if _, ok := rep.PerLayer[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if len(rep.PerLayer) != len(perLayer) {
		t.Errorf("reported %d per-layer metrics, the table has %d", len(rep.PerLayer), len(perLayer))
	}
	if rep.PerLayer["bench.trace_overhead_ratio"] <= 0 {
		t.Errorf("bench.trace_overhead_ratio = %v", rep.PerLayer["bench.trace_overhead_ratio"])
	}
	var children, requests int
	for _, s := range rep.Spans {
		if s.EndUS < s.StartUS {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent != 0 {
			children++
		}
		if s.Req != "" {
			requests++
		}
	}
	if children == 0 || requests == 0 {
		t.Errorf("%d spans: %d with a parent, %d with a request id", len(rep.Spans), children, requests)
	}
	out := t.TempDir()
	if err := writeReport(out, rep); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"gateway-bin-2k.json", "gateway-bin-2k.trace.json"} {
		raw, err := os.ReadFile(filepath.Join(out, "bench", "out", f))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Fingerprint fingerprint `json:"fingerprint"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || doc.Fingerprint.GoVersion == "" {
			t.Errorf("%s: no machine fingerprint (err %v)", f, err)
		}
	}
}

// TestInterruptCleansUp cancels a run in its windows, as SIGINT does:
// the run fails, and no child process or temp dir outlives it.
func TestInterruptCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	opt := smokeOptions(t, false)
	opt.seconds = 30
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the stack is up: its temp dir exists from newStack on.
		for {
			if dirs, _ := filepath.Glob(filepath.Join(tmp, "availbench-*")); len(dirs) > 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := runWorkload(ctx, mustProfiles(t)["gateway-bin-2k"], opt); err == nil {
		t.Error("a cancelled run reported success")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("a cancelled run took %v to stop", took)
	}
	if left := leftovers(t, tmp); len(left) != 0 {
		t.Errorf("left behind %v", left)
	}
}
