package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWriterFlushReportsDroppedOps pins the dropped-ops contract: a
// writer whose buffered batch cannot be delivered because the engine
// closed returns ErrClosed and counts exactly how many ops were lost in
// ingest_writer_dropped_total.
func TestWriterFlushReportsDroppedOps(t *testing.T) {
	e := New(Config{Shards: 2, BatchSize: 64})
	w := e.NewWriter()
	const buffered = 7
	for i := range buffered {
		if err := w.Observe(rec(i, 1, true, 0)); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}
	e.Close()

	dropped := e.Registry().Counter("ingest_writer_dropped_total")
	if err := w.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close: got %v, want ErrClosed", err)
	}
	if got := dropped.Value(); got != buffered {
		t.Fatalf("ingest_writer_dropped_total = %d, want %d", got, buffered)
	}
	// A Put after close drops the full buffer it just joined.
	if err := w.Observe(rec(1, 1, true, 0)); err != nil {
		t.Fatalf("Observe buffers locally even when closed: %v", err)
	}
	if err := w.Flush(); !errors.Is(err, ErrClosed) || dropped.Value() != buffered+1 {
		t.Fatalf("second Flush: got %v with %d dropped, want ErrClosed with %d", err, dropped.Value(), buffered+1)
	}
}

// TestAtomicLifecycleStress hammers the lock-free lifecycle fast path
// from every direction at once — Submit, batching Writers, Flush,
// Summary, Swarm and a racing Close — and then audits the books: every
// op whose acknowledgement the producer saw (a nil Submit error, or a
// buffered Put not later counted in ingest_writer_dropped_total) must be
// in the final state, and nothing else. Run with -race; this is the test
// for the "atomic closed-flag instead of RWMutex" redesign.
func TestAtomicLifecycleStress(t *testing.T) {
	const (
		submitters = 4
		writers    = 4
		batch      = 8
	)
	e := New(Config{Shards: 4, BatchSize: batch, queueDepth: 16})
	var (
		wg    sync.WaitGroup
		acked atomic.Uint64 // Submit ops acknowledged, and Writer puts buffered
	)
	stop := make(chan struct{})

	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := e.Submit([]Op{
					EventOp(rec(g*1_000_000+i, 1, true, 0)),
					EventOp(rec(g*1_000_000+i, 1, false, 1)),
				})
				if err == nil {
					acked.Add(2)
					continue
				}
				if !errors.Is(err, ErrClosed) {
					t.Errorf("submit: %v", err)
				}
				return
			}
		}()
	}
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.NewWriter()
			puts := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					acked.Add(puts)
					if err := w.Flush(); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("writer flush: %v", err)
					}
					return
				default:
				}
				err := w.Observe(rec((10+g)*1_000_000+i, 1, true, 0))
				if err == nil {
					puts++
					continue
				}
				if errors.Is(err, ErrClosed) {
					// The drop count includes the op this Put just
					// buffered, so count it as put — then flush the
					// writer's other shard buffers so their losses are
					// counted too.
					acked.Add(puts + 1)
					if ferr := w.Flush(); ferr != nil && !errors.Is(ferr, ErrClosed) {
						t.Errorf("writer flush: %v", ferr)
					}
				} else {
					t.Errorf("writer put: %v", err)
					acked.Add(puts)
				}
				return
			}
		}()
	}
	// Readers and a flusher race the producers and the close.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Summary()
				_, _ = e.Swarm(i % 100)
				e.Flush()
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	e.Close() // concurrent Close must be safe and idempotent
	<-done
	close(stop)
	wg.Wait()

	dropped := e.Registry().Counter("ingest_writer_dropped_total").Value()
	if got, want := e.Summary().Events, acked.Load()-dropped; got != want {
		t.Fatalf("events after close: %d, want %d (acked %d − dropped %d)",
			got, want, acked.Load(), dropped)
	}
}
