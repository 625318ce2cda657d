package main

import (
	"sync"
	"time"
)

// span is one traced interval: a client call in the real run or a call
// into a layer's public function in the in-process probe. Spans of one
// request (a frame's push, ack wait and freshness; a query) share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	StartUS int64  `json:"start_us"` // since the run's start
	EndUS   int64  `json:"end_us"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one finished span and returns its id for children.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		StartUS: start.Sub(t.epoch).Microseconds(),
		EndUS:   end.Sub(t.epoch).Microseconds(),
	})
	return id
}

// finish moves an already recorded span's end, for a parent recorded
// before its children.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = end.Sub(t.epoch).Microseconds()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, "", parent, start, end)
	return end.Sub(start)
}
