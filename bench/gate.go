package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"swarmavail/internal/ingest"
)

// The correctness gate: every acknowledged record applied exactly once
// (the served events count equals the acknowledged count), and the
// SUT's /v1/state?consistent=1 byte-identical to a 1-shard in-process
// engine fed the same op stream.

// bodyWriter is the minimal http.ResponseWriter the shared renderers
// need to write into memory.
type bodyWriter struct {
	h   http.Header
	buf bytes.Buffer
}

func (w *bodyWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *bodyWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *bodyWriter) WriteHeader(int)             {}

// referenceState replays the generator's preload and first tailRecords
// tail records through a 1-shard engine and renders its /v1/state body.
// It rewinds the generator's tail.
func referenceState(g *generator, tailRecords uint64) ([]byte, error) {
	e := ingest.New(ingest.Config{Shards: 1})
	defer e.Close()
	w := e.NewWriter()
	if err := g.preload(w.Put); err != nil {
		return nil, err
	}
	g.restartTail()
	for i := uint64(0); i < tailRecords; i++ {
		if err := w.Observe(g.next()); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	var out bodyWriter
	ingest.WriteState(&out, e.Summary())
	return out.buf.Bytes(), nil
}

// gateResult is the gate's verdict on one served state.
type gateResult struct {
	wantEvents, gotEvents uint64
	stateEqual            bool
	// failed is the number of records missing or duplicated in the
	// served state: the events difference, or 1 when the counts agree
	// but the bytes do not (a loss and a duplicate can cancel in the
	// count, never in the state).
	failed uint64
}

func (r gateResult) ok() bool { return r.failed == 0 }

func (r gateResult) String() string {
	return fmt.Sprintf("events %d (acknowledged %d), state identical to reference: %v",
		r.gotEvents, r.wantEvents, r.stateEqual)
}

// consistentState fetches the barrier-read mergeable state.
func consistentState(ctx context.Context, c *http.Client, front string) ([]byte, error) {
	return fetch(ctx, c, front+"/v1/state?consistent=1")
}

// checkGate compares a served /v1/state body against the acknowledged
// record count and the reference body.
func checkGate(served []byte, acked uint64, reference []byte) (gateResult, error) {
	var st struct {
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(served, &st); err != nil {
		return gateResult{}, fmt.Errorf("gate: bad state body: %w", err)
	}
	r := gateResult{wantEvents: acked, gotEvents: st.Events, stateEqual: bytes.Equal(served, reference)}
	switch {
	case st.Events > acked:
		r.failed = st.Events - acked
	case st.Events < acked:
		r.failed = acked - st.Events
	case !r.stateEqual:
		r.failed = 1
	}
	return r, nil
}
