package ingest

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmavail/internal/trace"
)

func rec(swarm int, peer uint64, online bool, t float64) Record {
	return Record{SwarmID: swarm, PeerID: peer, Seed: true, Online: online, Time: t}
}

// Submitting after Close must return ErrClosed — never panic on a
// closed channel — for every write entry point.
func TestSubmitAfterCloseReturnsError(t *testing.T) {
	e := New(Config{Shards: 4})
	if err := e.Observe(rec(1, 1, true, 0)); err != nil {
		t.Fatalf("Observe before close: %v", err)
	}
	w := e.NewWriter()
	if err := w.Observe(rec(2, 1, true, 0)); err != nil {
		t.Fatalf("Writer.Observe before close: %v", err)
	}
	e.Close()

	if err := e.Submit([]Op{EventOp(rec(1, 1, false, 1))}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: got %v, want ErrClosed", err)
	}
	if err := e.RegisterSwarm(trace.SwarmMeta{ID: 9}, 30); !errors.Is(err, ErrClosed) {
		t.Fatalf("RegisterSwarm after close: got %v, want ErrClosed", err)
	}
	// The writer still buffers op 2 from before the close: Flush must
	// surface the loss instead of panicking or dropping silently.
	if err := w.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Writer.Flush after close: got %v, want ErrClosed", err)
	}

	// Reads serve the final drained state: swarm 1 (submitted directly)
	// made it in; swarm 2 was still buffered in the writer, and its loss
	// was reported by Flush above.
	sum := e.Summary()
	if sum.Swarms != 1 {
		t.Fatalf("post-close Summary: %d swarms, want 1", sum.Swarms)
	}
	if _, ok := e.Swarm(1); !ok {
		t.Fatalf("post-close Swarm(1) missing")
	}
	if _, ok := e.Swarm(42); ok {
		t.Fatalf("post-close Swarm(42) should be unknown")
	}
	e.Flush() // no-op, must not hang or panic
	e.Close() // idempotent
}

// Close must drain every batch already queued: ops submitted (and
// acknowledged) before Close are all visible afterwards.
func TestCloseDrainsQueuedWork(t *testing.T) {
	e := New(Config{Shards: 2, QueueDepth: 256})
	const n = 500
	for i := 0; i < n; i++ {
		if err := e.Observe(rec(i, 1, true, 0)); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}
	e.Close()
	if got := e.Summary().Swarms; got != n {
		t.Fatalf("after Close: %d swarms, want %d", got, n)
	}
	if m := e.Metrics(); m.Applied != n {
		t.Fatalf("after Close: applied %d, want %d", m.Applied, n)
	}
}

// Concurrent submitters racing Flush and Close: no panics, no lost
// acknowledged ops, late submitters get ErrClosed. Run with -race.
func TestConcurrentSubmitRacingClose(t *testing.T) {
	e := New(Config{Shards: 4, QueueDepth: 8})
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := e.Observe(rec(g*1_000_000+i, 1, true, 0))
				if err == nil {
					accepted.Add(1)
					continue
				}
				if !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected submit error: %v", err)
				}
				return
			}
		}(g)
	}
	// A reader and a flusher race the writers too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = e.Summary()
			e.Flush()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	e.Close()
	close(stop)
	wg.Wait()
	if got, want := e.Summary().Events, accepted.Load(); got != want {
		t.Fatalf("events after close: %d, want %d accepted", got, want)
	}
}

// HTTPClient retries a flaky ingest endpoint to success and reports
// at-least-once delivery.
func TestHTTPClientRetriesToSuccess(t *testing.T) {
	var calls atomic.Int32
	e := New(Config{Shards: 1})
	defer e.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "catching my breath", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"accepted": 2}`))
	}))
	defer srv.Close()

	c := NewHTTPClient(HTTPClientConfig{
		BaseURL:     srv.URL,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	})
	err := c.Push(context.Background(), []Record{rec(1, 1, true, 0), rec(1, 1, false, 1)})
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if c.Retries() != 2 {
		t.Fatalf("client counted %d retries, want 2", c.Retries())
	}
}

// A fatal server verdict (4xx) must not be retried.
func TestHTTPClientFatalNotRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad record", http.StatusBadRequest)
	}))
	defer srv.Close()
	c := NewHTTPClient(HTTPClientConfig{BaseURL: srv.URL, BackoffBase: time.Millisecond})
	if err := c.Push(context.Background(), []Record{rec(1, 1, true, 0)}); err == nil {
		t.Fatalf("push should fail on 400")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fatal error retried: %d attempts", got)
	}
}

// Context cancellation aborts the retry loop promptly.
func TestHTTPClientHonoursContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewHTTPClient(HTTPClientConfig{
		BaseURL:     srv.URL,
		BackoffBase: time.Hour, // would stall forever without the ctx
		BackoffCap:  time.Hour,
		MaxAttempts: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Push(ctx, []Record{rec(1, 1, true, 0)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("push: got %v, want context deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("push ignored the context for %v", time.Since(start))
	}
}
