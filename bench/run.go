package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"syscall"
	"time"
)

// report is one workload run's outcome. The file written under
// bench/out carries all of it; the result line on stdout carries the
// part the driver's contract names.
type report struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Traced      bool        `json:"traced"`
	Fingerprint fingerprint `json:"fingerprint"`
	Correct     bool        `json:"correct"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	// FailedOpsRatio is Failed ÷ Attempted: failed pushes, failed
	// queries and records missing or duplicated in the final state.
	FailedOpsRatio float64            `json:"failed_ops_ratio"`
	EndToEnd       map[string]float64 `json:"end_to_end"`
	PerLayer       map[string]float64 `json:"per_layer,omitempty"`
	// Samples counts the observations behind each timing.
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`
	// Spans of a traced run go to their own file.
	Spans []span `json:"-"`
}

// options are the run parameters that are not the workload's own.
type options struct {
	root    string // repo root: where the SUT is built from
	seed    int64
	seconds int
	trace   bool
	// scale shrinks a copy of the profile's scalar fields and crash
	// schedule for the smoke test; nil runs it as written.
	scale func(*Profile)
}

// An untraced run sets up again until a quarter of -seconds has gone into
// set-ups, at most maxSetups times: with 8 s, nine set-ups at 2000 swarms
// and one at 66 000.
const maxSetups = 9

// runWorkload runs one workload end to end: build, set up (several
// times when untraced), the measured windows, the crash schedule, the
// correctness gate and — traced — the in-process layer probes.
func runWorkload(ctx context.Context, prof *Profile, opt options) (*report, error) {
	if opt.scale != nil {
		cp := *prof
		opt.scale(&cp)
		prof = &cp
	}
	rep := &report{
		Workload: prof.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace,
		Fingerprint: machineFingerprint(opt.root),
		EndToEnd:    map[string]float64{}, Samples: map[string]int{},
	}
	// phase notes how long each part of the run took, for sizing the
	// run against the driver's time cap.
	mark := time.Now()
	phase := func(name string) {
		rep.Notes = append(rep.Notes, fmt.Sprintf("phase %s: %.2fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	binDir, buildTook, err := buildSUT(ctx, opt.root)
	if err != nil {
		return nil, err
	}
	phase("build")
	gen := newGenerator(prof, opt.seed)
	phase("generate")
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}

	// Set-up: process start + preload + warm-up. An untraced run repeats
	// it on fresh data dirs (see maxSetups) and reports the median, because
	// set-up has one sample per stack; the last stack is the one measured.
	l := &load{ctx: ctx, gen: gen, prof: prof}
	defer l.cleanUp()
	var setups []float64
	budget := time.Duration(opt.seconds) * time.Second / 4
	for first := time.Now(); ; {
		if l.st != nil { // the stack of the repeat before: not part of this set-up
			l.st.kill()
			l.q.close()
		}
		start := time.Now()
		if err := l.setUp(binDir, opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if opt.trace || len(setups) == maxSetups || time.Since(first) >= budget {
			break
		}
	}
	phase(fmt.Sprintf("setup %.3v", setups))
	rep.EndToEnd["setup_s"] = median(setups)
	rep.Samples["setup_s"] = len(setups)

	// Measured windows. A traced run splits each window in two halves,
	// untraced then traced, so the tracing overhead is a ratio within
	// one run.
	var plain, traced []*windowResult
	for _, spec := range prof.Groups.Writers.Windows {
		dur := time.Duration(spec.Share * float64(opt.seconds) * float64(time.Second))
		if opt.trace {
			dur /= 2
		}
		res, err := l.runWindow(spec, dur, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, res)
		if opt.trace {
			if res, err = l.runWindow(spec, dur, tr); err != nil {
				return nil, err
			}
			traced = append(traced, res)
		}
	}
	// Latency, CPU, memory and WAL metrics come from the first window;
	// ingest_records_per_s from the last, which is a closed loop.
	phase("windows")
	first, last := plain[0], plain[len(plain)-1]
	l.failed += first.windowMetrics(rep.EndToEnd, rep.Samples)
	rep.EndToEnd["ingest_records_per_s"] = last.recordsPerS(prof.Groups.Writers.FrameRecords)
	rep.Samples["ingest_records"] = int(last.records)

	checkpoints, recoveries, err := l.crashSchedule(rep)
	if err != nil {
		return nil, err
	}
	phase(fmt.Sprintf("crash term %.3v recovery %.3v", checkpoints, recoveries))
	rep.EndToEnd["checkpoint_s"] = median(checkpoints)
	rep.Samples["checkpoint_s"] = len(checkpoints)
	rep.EndToEnd["recovery_s"] = median(recoveries)
	rep.Samples["recovery_s"] = len(recoveries)

	// Gate.
	served, err := consistentState(ctx, l.q.raw, l.st.front)
	if err != nil {
		return nil, err
	}
	tail := l.events - gen.preloadEvents()
	reference, err := referenceState(gen, tail)
	if err != nil {
		return nil, err
	}
	gate, err := checkGate(served, l.events, reference)
	if err != nil {
		return nil, err
	}
	phase("gate")
	rep.Notes = append(rep.Notes, "gate: "+gate.String())
	rep.conclude(l.attempted+int(tail), l.failed, gate)

	if lag := quantile(first.schedLag, 0.95); lag > 5 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("flag: the generator ran late (sched lag p95 %.1f ms)", lag))
	}
	if share := first.genCPU / first.wall.Seconds(); share > 0.5 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("flag: the generator took %.2f of a core", share))
	}

	if opt.trace {
		rep.PerLayer = map[string]float64{}
		traced[0].layerMetrics(rep.PerLayer)
		rep.PerLayer["bench.trace_overhead_ratio"] = ratio(traced[0].cpuPerMrec(), first.cpuPerMrec())
		rep.PerLayer["bench.sched_lag_p95_ms"] = quantile(traced[0].schedLag, 0.95)
		rep.PerLayer["bench.gen_cpu_ratio"] = traced[0].genCPU / traced[0].wall.Seconds()
		rep.PerLayer["bench.build_s"] = buildTook.Seconds()
		rep.PerLayer["e2e.failed_ops_ratio"] = rep.FailedOpsRatio
		for _, d := range measured {
			if d.Bound == 0 {
				rep.PerLayer["e2e."+d.Name] = rep.EndToEnd[d.Name]
			}
		}
		notes, err := probeLayers(prof, gen, tr, rep.PerLayer)
		if err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		rep.Notes = append(rep.Notes, notes...)
		phase("probe")
		rep.Spans = tr.spans
	}
	return rep, nil
}

// conclude folds the load's counts and the gate's verdict into the
// report: failed pushes, failed queries and records missing or
// duplicated in the final state, over everything attempted.
func (rep *report) conclude(attempted, failed int, gate gateResult) {
	rep.Attempted = attempted
	rep.Failed = failed + int(gate.failed)
	rep.FailedOpsRatio = float64(rep.Failed) / float64(rep.Attempted)
	rep.Correct = rep.Failed == 0
}

// crashSchedule runs the profile's crash steps. Each step streams a
// tail, saves the served state, signals every process, and restarts the
// stack, which must serve the saved state. A SIGTERM's exit time (drain
// + final checkpoint) is a checkpoint_s sample; a restart after a SIGKILL
// (checkpoint load + WAL tail replay) is a recovery_s sample.
func (l *load) crashSchedule(rep *report) (checkpoints, recoveries []float64, err error) {
	for i, name := range l.prof.Crash.Signals {
		if err := l.sendTail(l.prof.Crash.TailRecords); err != nil {
			return nil, nil, err
		}
		saved, err := consistentState(l.ctx, l.q.raw, l.st.front)
		if err != nil {
			return nil, nil, err
		}
		if name == "term" {
			checkpoints = append(checkpoints, l.st.signal(syscall.SIGTERM).Seconds())
		} else {
			l.st.signal(syscall.SIGKILL)
		}
		start := time.Now()
		if err := l.st.start(); err != nil {
			return nil, nil, fmt.Errorf("restart after %s: %w", name, err)
		}
		if name == "kill" {
			recoveries = append(recoveries, time.Since(start).Seconds())
		}
		recovered, err := consistentState(l.ctx, l.q.raw, l.st.front)
		if err != nil {
			return nil, nil, err
		}
		l.attempted++
		if !bytes.Equal(saved, recovered) {
			l.failed++
			rep.Notes = append(rep.Notes, fmt.Sprintf("crash step %d (%s): the recovered state differs from the state saved before the signal", i+1, name))
		}
	}
	return checkpoints, recoveries, nil
}

// setUp starts a stack on fresh data dirs, streams the preload, checks
// it landed, waits until the snapshot reads serve it, and touches every
// query endpoint once.
func (l *load) setUp(binDir string, seed int64) error {
	st, err := newStack(l.prof.Stack, binDir)
	if err != nil {
		return err
	}
	l.st, l.stacks = st, append(l.stacks, st)
	if err := l.st.start(); err != nil {
		return err
	}
	l.q = newQuerier(l.st, l.prof, seed)
	if err := l.preload(); err != nil {
		return err
	}
	served, err := consistentState(l.ctx, l.q.raw, l.st.front)
	if err != nil {
		return err
	}
	// No reference yet: only the events count is checked here.
	if gate, err := checkGate(served, l.events, served); err != nil || !gate.ok() {
		return fmt.Errorf("preload did not land: %v %v", gate, err)
	}
	// The snapshot path may trail the barrier read by SnapshotMaxAge.
	for deadline := time.Now().Add(startTimeout); ; time.Sleep(2 * time.Millisecond) {
		events, err := l.q.do(l.ctx, "summary")
		if err != nil {
			return fmt.Errorf("warm-up summary: %w", err)
		}
		if events == l.events {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: /v1/summary still serves %d of %d events", events, l.events)
		}
	}
	for _, ep := range queryEndpoints {
		if _, err := l.q.do(l.ctx, ep); err != nil {
			return fmt.Errorf("warm-up %s: %w", ep, err)
		}
	}
	return nil
}

// cleanUp kills every process still running, then removes every stack's
// data dirs. Removal comes last in a run: on this ext4 (mounted with
// discard) deleting a few hundred MiB slows fsync by half for several
// seconds afterwards, which must not fall inside a measurement.
func (l *load) cleanUp() {
	if l.q != nil {
		l.q.close()
	}
	for _, st := range l.stacks {
		st.kill()
	}
	for _, st := range l.stacks {
		_ = os.RemoveAll(st.workDir)
	}
}
